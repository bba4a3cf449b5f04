// Command e2ebench is Campion's end-to-end benchmark. Each workload
// generates router configuration text from a seed, drives it through the
// public API from text to a rendered verdict, checks every verdict
// against known answers and the concrete oracle (outside the timed
// region), and prints one JSON result line last on standard output.
//
//	bash e2ebench/run.sh --workload rm-pair --seed 1 --seconds 28 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 28
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no tracing at all. With --trace 1 a separate traced run records
// spans around the calls into each layer and reports per-layer metrics;
// its Chrome trace and self-time table are written under traceDir when
// the run ends. The benchmark adds no
// instrumentation to the program: it times public calls and reads the
// hooks the program already exposes (Report.Stats, FleetStats, the
// session's AuditStats and journal phase events).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// traceDir holds traced-run output, relative to the checkout root the
// benchmark runs from.
const traceDir = ".bench_build/e2ebench-trace"

// Worker counts are pinned so every run schedules the same way: 2 is the
// CPU count of the reference host and the CLI's default there.
const workers = 2

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// done reports whether the measuring window has closed, given the
// number of operations done; every run does at least minOps.
func (c runConfig) done(start time.Time, ops, minOps int) bool {
	return ops >= minOps && time.Since(start).Seconds() >= c.seconds
}

// outcome is a workload's raw result before it is printed.
type outcome struct {
	attempted, failed int64
	// latencies are the untraced operation wall times (trace 0).
	latencies []time.Duration
	// setup is the set-up time samples (trace 0).
	setup []time.Duration
	// layers holds the per-layer metrics (trace 1).
	layers map[string]metric
	// notes are human-readable lines printed before the result.
	notes []string
}

// workload is one benchmark scenario.
type workload struct {
	name string
	// generate builds the workload's inputs from the seed; it is what a
	// set-up probe process does before reporting ready.
	generate func(seed int64)
	run      func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"rm-pair", generateRMPair, runRMPair},
	{"acl-pair", generateACLPair, runACLPair},
	{"fleet-audit", generateFleetAudit, runFleetAudit},
	{"daemon-edits", generateDaemon, runDaemonEdits},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 28, "how long to measure")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	probe := flag.Bool("probe-setup", false, "generate the inputs, print ready and exit (set-up probe)")
	flag.Parse()

	if *probe {
		w, ok := findWorkload(*name)
		if !ok {
			os.Exit(2)
		}
		w.generate(*seed)
		fmt.Println("ready")
		return
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *name == "all" {
		os.Exit(runAll(cfg))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, ok := runOne(w, cfg)
	if !ok {
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runOne runs one workload and assembles its result; ok is false when
// the workload could not run at all.
func runOne(w workload, cfg runConfig) (result, bool) {
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		return result{}, false
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	fmt.Fprintf(os.Stderr, "%s: fail_ratio %d/%d = %g\n", w.name, out.failed, out.attempted,
		float64(out.failed)/float64(max(out.attempted, 1)))
	if cfg.trace {
		res.Metrics = out.layers
		return res, true
	}
	p50, tail, label := latencyStats(out.latencies)
	fmt.Fprintf(os.Stderr, "%s: latency_tail_ms is %s of %d operations\n", w.name, label, len(out.latencies))
	res.Metrics = map[string]metric{
		"setup_s":         {median(out.setup).Seconds(), "s"},
		"latency_p50_ms":  {ms(p50), "ms"},
		"latency_tail_ms": {ms(tail), "ms"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
	return res, true
}

// runAll runs every workload in turn, each in its own process so its
// peak memory is its own, and prints each metric by name and unit. It
// returns the process exit status: non-zero when any workload failed to
// run or failed a correctness check.
func runAll(cfg runConfig) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: no result (%v)\n", w.name, err)
			status = 1
			continue
		}
		if err != nil || !res.Correct {
			status = 1
		}
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("%-15s correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		for _, n := range names {
			m := res.Metrics[n]
			fmt.Printf("%-15s %-28s %14.4f %s\n", w.name, n, m.Value, m.Unit)
		}
	}
	return status
}

// probeSetup measures process start to ready: it runs this binary in
// probe mode n times and takes the wall time from process start until
// the child reports its inputs generated. Package initialisation of the
// whole program is inside that interval, so work moved there shows.
func probeSetup(workload string, seed int64, n int) ([]time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--probe-setup", "--workload", workload, "--seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		werr := cmd.Wait()
		if rerr != nil || strings.TrimSpace(line) != "ready" {
			return nil, fmt.Errorf("set-up probe: no ready line (%v)", rerr)
		}
		if werr != nil {
			return nil, fmt.Errorf("set-up probe: %w", werr)
		}
		out = append(out, d)
	}
	return out, nil
}

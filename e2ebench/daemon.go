package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/campion"
	"repro/internal/session"
	"repro/internal/testnets"
)

// The daemon workloads' fleet: 200 copies of one template, 10 of them
// edited.
const daemonDevices, daemonMutants = 200, 10

func generateDaemon(seed int64) { fleetMembers(seed, daemonDevices, daemonMutants, newEditor(seed)) }

// daemon is a seeded session behind session.Server on a loopback
// listener, and the one client that drives it.
type daemon struct {
	// unmutated lists the devices expected to be equivalent.
	unmutated []string
	text      map[string]string
	srv       *http.Server
	served    chan error
	base      string
	client    *http.Client

	stopOnce sync.Once
	stopErr  error
}

// newSession seeds a session with the fleet and runs the first full
// audit: the daemon's set-up.
func newSession(members []testnets.FleetMember, journal *campion.Journal) (*session.Session, error) {
	sess := session.New(session.Options{
		Diff:    campion.BatchOptions{Options: diffOptions, BatchWorkers: workers},
		Journal: journal,
		Metrics: campion.NewMetrics(),
	})
	ctx := context.Background()
	for _, m := range members {
		if _, err := sess.Ingest(ctx, m.Name, []byte(m.Text), "seed", false); err != nil {
			return nil, err
		}
	}
	if _, err := sess.Audit(ctx); err != nil {
		return nil, err
	}
	return sess, nil
}

// startDaemon serves sess on a loopback port.
func startDaemon(sess *session.Session, members []testnets.FleetMember, ht *handlerTrace) (*daemon, error) {
	d := &daemon{text: map[string]string{}, served: make(chan error, 1)}
	for _, m := range members {
		d.text[m.Name] = m.Text
		if !m.Mutated {
			d.unmutated = append(d.unmutated, m.Name)
		}
	}
	if len(d.unmutated) < 2 {
		return nil, errors.New("fleet has fewer than two unmutated devices")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = (&session.Server{Session: sess}).Handler()
	if ht != nil {
		h = ht.wrap(h)
	}
	d.srv = &http.Server{Handler: h}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return d, nil
}

// stop shuts the server down and waits for it to exit; calls after the
// first return the first one's result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		d.client.CloseIdleConnections()
		d.stopErr = d.srv.Shutdown(context.Background())
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) && d.stopErr == nil {
			d.stopErr = err
		}
	})
	return d.stopErr
}

// call makes one request and reads the whole response.
func (d *daemon) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// stepResult is what one step (a snapshot push and a pair report)
// returned.
type stepResult struct {
	latency          time.Duration
	postCode, gCode  int
	ingest           session.IngestResult
	diffs            int
	postBody, report []byte
}

// step pushes text as device dev, then fetches dev's report against
// peer; the latency covers both requests.
func (d *daemon) step(dev, peer, text string) (stepResult, error) {
	var r stepResult
	start := time.Now()
	code, body, err := d.call("POST", "/snapshot/"+dev, []byte(text))
	if err != nil {
		return r, err
	}
	gcode, rep, err := d.call("GET", "/report/"+dev+"/"+peer, nil)
	if err != nil {
		return r, err
	}
	r.latency = time.Since(start)
	r.postCode, r.gCode, r.postBody, r.report = code, gcode, body, rep
	return r, nil
}

// checkStep is the known-answer check of one step: both requests
// succeed, and the pair report has differences exactly when the pushed
// text differs semantically from the unmutated peer.
func checkStep(r stepResult, wantDiffs bool) (stepResult, error) {
	if r.postCode != http.StatusOK || r.gCode != http.StatusOK {
		return r, fmt.Errorf("status %d (snapshot) and %d (report), want 200", r.postCode, r.gCode)
	}
	if err := json.Unmarshal(r.postBody, &r.ingest); err != nil {
		return r, fmt.Errorf("snapshot response: %v", err)
	}
	var payload struct {
		Diffs int `json:"diffs"`
	}
	if err := json.Unmarshal(r.report, &payload); err != nil {
		return r, fmt.Errorf("report response: %v", err)
	}
	r.diffs = payload.Diffs
	if wantDiffs && r.diffs == 0 {
		return r, errors.New("an edited device reported equivalent to an unmutated peer")
	}
	if !wantDiffs && r.diffs != 0 {
		return r, fmt.Errorf("a reverted device reported %d differences to an unmutated peer", r.diffs)
	}
	return r, nil
}

// daemonWorkload is a closed loop of one client over one connection:
// every iteration pushes a fresh edit to a device, then its original
// text back.
type daemonWorkload struct{ name string }

func runDaemonEdits(cfg runConfig) (*outcome, error) {
	return daemonWorkload{"daemon-edits"}.run(cfg)
}

func (w daemonWorkload) run(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	ed := newEditor(cfg.seed)
	members := fleetMembers(cfg.seed, daemonDevices, daemonMutants, ed)
	rng := rand.New(rand.NewSource(cfg.seed))

	var t *tracer
	var journal *campion.Journal
	var js *journalSpans
	var ht *handlerTrace
	if cfg.trace {
		t = newTracer()
		journal, js = newJournal(t)
		ht = &handlerTrace{t: t, js: js, op: -1}
	}

	// Set-up: seed the session and audit it. Untraced runs set up three
	// times and report the median.
	var sess *session.Session
	setups := 3
	if cfg.trace {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		if sess, err = newSession(members, journal); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start))
	}
	runtime.GC() // every run starts measuring from the same heap
	d, err := startDaemon(sess, members, ht)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// One iteration is two steps: push the edit, then push the original
	// text back. Each step is an operation; its latency is the push plus
	// the report fetch. The edit steps' latencies are reported.
	var edits, reverts layerRun
	var untraced, traced []time.Duration
	op := 0
	run := func(dev, peer, text string, wantDiffs, traceIt bool, lr *layerRun) error {
		if traceIt {
			ht.setOp(op)
		}
		r, err := d.step(dev, peer, text)
		if traceIt {
			ht.setOp(-1)
		}
		if err != nil {
			return err
		}
		out.attempted++
		r, cerr := checkStep(r, wantDiffs)
		if cerr != nil {
			out.failed++
			if out.failed <= 5 {
				out.notes = append(out.notes, fmt.Sprintf("%s: check failed: %v", w.name, cerr))
			}
		}
		counted := wantDiffs // the step kind this workload reports
		switch {
		case traceIt:
			ht.finish(op, text, r, lr)
			op++
			if counted {
				traced = append(traced, r.latency)
			}
		case cfg.trace:
			if counted {
				untraced = append(untraced, r.latency)
			}
		case counted:
			out.latencies = append(out.latencies, r.latency)
		}
		return nil
	}
	start := time.Now()
	for i := 0; !cfg.done(start, len(out.latencies)+len(traced), 30); i++ {
		traceIt := cfg.trace && i%2 == 1
		dev := d.unmutated[rng.Intn(len(d.unmutated))]
		edited := ed.edit(d.text[dev])
		peer := dev
		for peer == dev {
			peer = d.unmutated[rng.Intn(len(d.unmutated))]
		}
		if err := run(dev, peer, edited, true, traceIt, &edits); err != nil {
			return nil, err
		}
		if err := run(dev, peer, d.text[dev], false, traceIt, &reverts); err != nil {
			return nil, err
		}
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}

	// The metrics are the edit steps'; the table covers both kinds.
	out.layers = edits.metrics(map[string]float64{"trace.overhead_ms": ms(median(traced)) - ms(median(untraced))})
	table := edits.selfTable(w.name+" novel-edit step") + reverts.selfTable(w.name+" revert step")
	out.notes = append(out.notes, table)
	if err := writeTraceFiles(cfg, t, op, table); err != nil {
		return nil, err
	}
	return out, nil
}

// handlerTrace records a span around every request the daemon serves
// while an operation is being traced, and routes the session's journal
// events under it.
type handlerTrace struct {
	t  *tracer
	js *journalSpans

	mu   sync.Mutex
	op   int // -1: not tracing
	root int
	m0   memSample
}

// setOp starts tracing operation op (opening its root span), or stops
// with op < 0 (closing it).
func (h *handlerTrace) setOp(op int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if op < 0 {
		h.t.end(h.root)
		h.op = -1
		return
	}
	h.m0 = readMem()
	h.op, h.root = op, h.t.begin(op, -1, rootSpan)
}

func (h *handlerTrace) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		op, root := h.op, h.root
		h.mu.Unlock()
		if op < 0 {
			next.ServeHTTP(w, r)
			return
		}
		id := h.t.begin(op, root, "session.handler")
		h.js.setHandler(op, id)
		next.ServeHTTP(w, r)
		h.t.end(id)
		h.js.setOp(-1, -1)
	})
}

// finish completes a traced step: it replays the pushed text's parse
// under the ingest span and records the step's layer metrics, with the
// audit's own figures as the session returned them.
func (h *handlerTrace) finish(op int, text string, r stepResult, lr *layerRun) {
	m1 := readMem()
	if ingest := h.js.lastIngest(); ingest >= 0 {
		start := time.Now()
		campion.Parse("replay.cfg", text)
		h.t.addVirtual(op, ingest, "cisco.parse", time.Since(start))
	}
	counts := map[string]float64{
		"runtime.alloc_mb": h.m0.allocMB(m1), "runtime.gc_ms": h.m0.gcMS(m1),
		"bdd.nodes": float64(h.js.pairNodes()),
	}
	if a := r.ingest.Audit; a != nil {
		counts["session.audit_ms"] = float64(a.DurNS) / 1e6
		counts["session.rep_computed"] = float64(a.RepComputed)
		counts["fleet.classes"] = float64(a.Classes)
		counts["fleet.rep_pairs"] = float64(a.RepPairs)
	}
	lr.addOp(h.t, op, counts)
}

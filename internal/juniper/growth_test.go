//go:build unix

package juniper

import (
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/policygen"
)

// TestParseGrowth keeps the parser near-linear in the size of a route
// map: policygen text at 4k and 16k clauses, parsed 3 times each in
// alternation, and the median CPU times compared. A linear parser takes
// about 4× as long on the larger text and a quadratic one about 16×, so
// bounding the ratio by 8 catches a superlinear span builder without
// depending on the machine's speed. CPU time of this process (the
// parse plus its garbage collection) rather than wall time keeps other
// processes' load, such as concurrently running test binaries, out of
// the ratio.
func TestParseGrowth(t *testing.T) {
	texts := []string{
		policygen.Generate(policygen.Params{Seed: 1, Clauses: 4000}).JuniperText,
		policygen.Generate(policygen.Params{Seed: 1, Clauses: 16000}).JuniperText,
	}
	times := make([][]time.Duration, len(texts))
	for run := 0; run < 3; run++ {
		for i, text := range texts {
			runtime.GC()
			start := cpuTime(t)
			if _, err := Parse("p.cfg", text); err != nil {
				t.Fatal(err)
			}
			times[i] = append(times[i], cpuTime(t)-start)
		}
	}
	for _, ts := range times {
		slices.Sort(ts)
	}
	small, large := times[0][1], times[1][1]
	ratio := float64(large) / float64(small)
	t.Logf("median parse: 4k clauses %v, 16k clauses %v: %.1f×", small, large, ratio)
	if ratio > 8 {
		t.Errorf("16k-clause parse took %.1f× the 4k one (%v vs %v), want ≤ 8×", ratio, large, small)
	}
}

// cpuTime returns the user plus system CPU time this process has used.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the middle sample (the mean of the two middle samples
// for an even count); 0 for no samples.
func median(ds []time.Duration) time.Duration {
	s := sortedDurations(ds)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for the reported tail, highest
// first. The list starts at p95: on a 2-CPU host the p99 of the daemon
// workloads moves by 20-30% from one run to the next with where garbage
// collections fall, too much for any bound to tell a change from noise.
// It stops at p75, since a p50 would be no tail at all.
var tailPercentiles = []float64{95, 90, 75}

// latencyStats returns the median and the tail: the highest percentile
// with at least ten samples beyond it, or the maximum when there are too
// few samples for any percentile to qualify. label names which.
func latencyStats(ds []time.Duration) (p50, tail time.Duration, label string) {
	s := sortedDurations(ds)
	if len(s) == 0 {
		return 0, 0, "none"
	}
	p50 = median(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(len(s)))) // 1-based nearest rank
		if len(s)-rank >= 10 {
			return p50, s[rank-1], fmt.Sprintf("p%g", p)
		}
	}
	return p50, s[len(s)-1], "max"
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSample is the runtime's allocation and GC pause counters at one
// instant; differences between two samples attribute them to the work in
// between.
type memSample struct {
	alloc   uint64
	pauseNS uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{alloc: m.TotalAlloc, pauseNS: m.PauseTotalNs}
}

func (a memSample) allocMB(b memSample) float64 { return float64(b.alloc-a.alloc) / (1 << 20) }

func (a memSample) gcMS(b memSample) float64 { return float64(b.pauseNS-a.pauseNS) / 1e6 }

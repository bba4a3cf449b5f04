package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/campion"
	"repro/internal/ddnf"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/oracle"
	"repro/internal/semdiff"
	"repro/internal/symbolic"
)

// pairWorkload is one cross-vendor Cisco↔JunOS pair, compared cold from
// text to rendered report once per operation.
type pairWorkload struct {
	name string
	// size is the generator's size parameter; small is size/4, the
	// other end of the layer's growth ratio.
	size, small int
	gen         func(seed int64, size int) pairText
	// growth names the growth-ratio metric this workload reports.
	growth []string
}

// pairText is a generated pair: Cisco IOS text and JunOS text.
type pairText struct{ cisco, juniper string }

var (
	rmPair = pairWorkload{
		name: "rm-pair", size: 1000, small: 250,
		gen:    rmPairText,
		growth: []string{"cisco.parse_growth_4x", "ddnf.build_growth_4x"},
	}
	aclPair = pairWorkload{
		name: "acl-pair", size: 3000, small: 750,
		gen:    aclPairText,
		growth: []string{"semdiff.diff_growth_4x"},
	}
)

func generateRMPair(seed int64)  { rmPair.gen(seed, rmPair.size) }
func generateACLPair(seed int64) { aclPair.gen(seed, aclPair.size) }

func runRMPair(cfg runConfig) (*outcome, error)  { return rmPair.run(cfg) }
func runACLPair(cfg runConfig) (*outcome, error) { return aclPair.run(cfg) }

var diffOptions = campion.Options{Workers: workers}

// countWriter counts rendered bytes and discards them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// parsePair parses both sides, naming the vendor as the CLI's -vendor
// flags would.
func parsePair(in pairText) (c1, c2 *campion.Config, err error) {
	if c1, err = campion.ParseAs(campion.VendorCisco, "a.cfg", in.cisco); err != nil {
		return nil, nil, err
	}
	if c2, err = campion.ParseAs(campion.VendorJuniper, "b.conf", in.juniper); err != nil {
		return nil, nil, err
	}
	return c1, c2, nil
}

// pairOp is one untraced operation: text in, rendered report out.
func pairOp(in pairText) (*campion.Report, time.Duration, error) {
	start := time.Now()
	c1, c2, err := parsePair(in)
	if err != nil {
		return nil, 0, err
	}
	rep, err := campion.Diff(c1, c2, diffOptions)
	if err != nil {
		return nil, 0, err
	}
	if err := campion.Write(&countWriter{}, rep); err != nil {
		return nil, 0, err
	}
	return rep, time.Since(start), nil
}

func (w pairWorkload) run(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	if !cfg.trace {
		setup, err := probeSetup(w.name, cfg.seed, 11)
		if err != nil {
			return nil, err
		}
		out.setup = setup
	}
	in := w.gen(cfg.seed, w.size)
	runtime.GC() // every run starts measuring from the same heap
	check := func(rep *campion.Report, replayErr error) {
		out.attempted++
		err := checkPairReport(rep)
		if err == nil {
			err = replayErr
		}
		if err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("%s: check failed: %v", w.name, err))
		}
	}
	start := time.Now()
	if !cfg.trace {
		// One untimed operation first fills the program's factory pool,
		// so the timed ones all start warm.
		rep, _, err := pairOp(in)
		if err != nil {
			return nil, err
		}
		check(rep, nil)
		runtime.GC()
		start = time.Now()
		for ops := 0; !cfg.done(start, ops, 3); ops++ {
			rep, d, err := pairOp(in)
			if err != nil {
				return nil, err
			}
			out.latencies = append(out.latencies, d)
			check(rep, nil)
		}
		return out, nil
	}

	// Traced run: alternate an untraced operation with a traced one and
	// its replay, so the tracing overhead is measured on the same inputs.
	t := newTracer()
	journal, js := newJournal(t)
	var lr layerRun
	var untraced, traced []time.Duration
	var reps []replayResult
	for op := 0; !cfg.done(start, op, 1); op++ {
		rep, d, err := pairOp(in)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, d)
		check(rep, nil)

		m0 := readMem()
		root := t.begin(op, -1, rootSpan)
		opStart := time.Now()
		js.setOp(op, root)
		var c1, c2 *campion.Config
		t.time(op, root, "cisco.parse", func() {
			c1, err = campion.ParseAs(campion.VendorCisco, "a.cfg", in.cisco)
		})
		if err != nil {
			return nil, err
		}
		t.time(op, root, "juniper.parse", func() {
			c2, err = campion.ParseAs(campion.VendorJuniper, "b.conf", in.juniper)
		})
		if err != nil {
			return nil, err
		}
		diffID := t.begin(op, root, "core.diff")
		js.setDiff(diffID)
		opts := diffOptions
		opts.Journal = journal
		rep, err = campion.Diff(c1, c2, opts)
		t.end(diffID)
		if err != nil {
			return nil, err
		}
		cw := &countWriter{}
		t.time(op, root, "present.render", func() { err = campion.Write(cw, rep) })
		if err != nil {
			return nil, err
		}
		traced = append(traced, time.Since(opStart))
		t.end(root)
		m1 := readMem()

		// Replay the semantic part outside the operation and attach the
		// measured layers to the component spans they explain.
		r := replayPair(c1, c2, rep.Stats)
		reps = append(reps, r)
		var replayErr error
		if n := len(rep.RouteMapDiffs) + len(rep.ACLDiffs); r.diffs != n {
			replayErr = fmt.Errorf("replay found %d differences, the report %d", r.diffs, n)
		}
		check(rep, replayErr)
		r.attach(t, op)
		counts := map[string]float64{
			"symbolic.paths": float64(r.npaths), "semdiff.diffs": float64(r.diffs),
			"ddnf.ranges": float64(r.ranges), "ddnf.dag_nodes": float64(r.dagNodes),
			"present.bytes":    float64(cw.n),
			"runtime.alloc_mb": m0.allocMB(m1), "runtime.gc_ms": m0.gcMS(m1),
		}
		var nodes int
		var hits, misses uint64
		for _, st := range rep.Stats {
			nodes += st.BDDNodes
			hits += st.CacheHits
			misses += st.CacheMisses
		}
		counts["bdd.nodes"] = float64(nodes)
		if hits+misses > 0 {
			counts["bdd.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		lr.addOp(t, op, counts)
	}
	extra := w.growthRatios(cfg.seed, reps)
	extra["trace.overhead_ms"] = ms(median(traced)) - ms(median(untraced))
	out.layers = lr.metrics(extra)
	table := lr.selfTable(w.name + " pair")
	out.notes = append(out.notes, table)
	if err := writeTraceFiles(cfg, t, len(lr.ops), table); err != nil {
		return nil, err
	}
	return out, nil
}

// growthRatios measures t(N)/t(N/4) for the layers this workload loads,
// timing each layer's call on its own at both sizes; the N side of the
// DAG build reuses the replays' standalone builds.
func (w pairWorkload) growthRatios(seed int64, reps []replayResult) map[string]float64 {
	small := w.gen(seed, w.small)
	big := w.gen(seed, w.size)
	out := map[string]float64{}
	ratio := func(num, den time.Duration) float64 {
		if den <= 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	for _, g := range w.growth {
		switch g {
		case "cisco.parse_growth_4x":
			parse := func(text string) time.Duration {
				return medianOf(3, func() {
					if _, err := campion.ParseAs(campion.VendorCisco, "a.cfg", text); err != nil {
						panic(err) // the same generator's text parsed in the operation
					}
				})
			}
			out[g] = ratio(parse(big.cisco), parse(small.cisco))
		case "ddnf.build_growth_4x":
			c1, c2, err := parsePair(small)
			if err != nil {
				panic(err)
			}
			ranges := append(headerloc.ConfigPrefixRanges(c1), headerloc.ConfigPrefixRanges(c2)...)
			t := medianOf(3, func() { ddnf.Build(ranges) })
			var builds []time.Duration
			for _, r := range reps {
				builds = append(builds, r.build)
			}
			out[g] = ratio(median(builds), t)
		case "semdiff.diff_growth_4x":
			// Unstriped at both sizes: the operation stripes the big pair
			// and not the small one, which would skew the ratio.
			diff := func(in pairText, n int) time.Duration {
				c1, c2, err := parsePair(in)
				if err != nil {
					panic(err)
				}
				return medianOf(n, func() {
					for _, name := range sharedACLs(c1, c2) {
						semdiff.DiffACLs(symbolic.NewPacketEncoding(), c1.ACLs[name], c2.ACLs[name])
					}
				})
			}
			out[g] = ratio(diff(big, 1), diff(small, 3))
		}
	}
	return out
}

// medianOf times fn n times and returns the median.
func medianOf(n int, fn func()) time.Duration {
	var ds []time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		ds = append(ds, time.Since(start))
	}
	return median(ds)
}

// checkPairReport is the known-answer check of one pair: differences
// were injected, so the report must be non-empty, and the concrete
// oracle must confirm that every difference's example input gets
// different outcomes on the two sides, decided on each side by the
// configuration lines the difference is localized to.
func checkPairReport(rep *campion.Report) error {
	if rep.TotalDifferences() == 0 {
		return fmt.Errorf("no differences reported, but differences were injected")
	}
	for i, d := range rep.RouteMapDiffs {
		loc := d.Localization
		if loc.ExampleRoute == nil || !loc.ExampleExact {
			return fmt.Errorf("route-map difference %d has no exact example route", i)
		}
		o1 := oracle.EvalChain(rep.Config1, d.Pair.Names1, loc.ExampleRoute)
		o2 := oracle.EvalChain(rep.Config2, d.Pair.Names2, loc.ExampleRoute)
		if !o1.Disagrees(o2) {
			return fmt.Errorf("route-map difference %d: the oracle treats example %v the same on both sides", i, loc.ExampleRoute)
		}
		if clauseAt(o1.Terminal) != d.Text1.Location() || clauseAt(o2.Terminal) != d.Text2.Location() {
			return fmt.Errorf("route-map difference %d: the oracle decides example %v at %q and %q, the report at %q and %q",
				i, loc.ExampleRoute, clauseAt(o1.Terminal), clauseAt(o2.Terminal), d.Text1.Location(), d.Text2.Location())
		}
	}
	for i, d := range rep.ACLDiffs {
		a1, a2 := rep.Config1.ACLs[d.Name1], rep.Config2.ACLs[d.Name2]
		if a1 == nil || a2 == nil {
			return fmt.Errorf("acl difference %d names a missing ACL", i)
		}
		p := d.Localization.ExamplePacket
		o1, o2 := oracle.EvalACL(a1, p), oracle.EvalACL(a2, p)
		if o1.Action == o2.Action {
			return fmt.Errorf("acl difference %d: the oracle treats example packet %+v the same on both sides", i, p)
		}
		if lineAt(o1.Line) != d.Text1.Location() || lineAt(o2.Line) != d.Text2.Location() {
			return fmt.Errorf("acl difference %d: the oracle decides example packet %+v at %q and %q, the report at %q and %q",
				i, p, lineAt(o1.Line), lineAt(o2.Line), d.Text1.Location(), d.Text2.Location())
		}
	}
	return nil
}

// clauseAt and lineAt locate the deciding clause or ACL line; a default
// action (nil) has no location, like the report's pseudo-span for it.
func clauseAt(cl *ir.RouteMapClause) string {
	if cl == nil {
		return ""
	}
	return cl.Span.Location()
}

func lineAt(l *ir.ACLLine) string {
	if l == nil {
		return ""
	}
	return l.Span.Location()
}

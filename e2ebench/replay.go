package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ddnf"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/netaddr"
	"repro/internal/semdiff"
	"repro/internal/symbolic"
)

// The semantic part of a traced pair is replayed outside the operation
// through the public functions the core calls, in the same order and
// with the same striping the operation used (ComponentStats.Stripes).
// Each call is a span of a replay tree; the tree's self times (parallel
// stripes share the wall clock) become the layer times attached to the
// operation's component span. ddnf.Build is timed on its own over the
// ranges each localizer builds its DAG from, and taken out of the
// localizer's time.

// replayResult is one pair's replayed semantic part.
type replayResult struct {
	// component is the operation span the replayed layers explain.
	component string
	layers    map[string]time.Duration
	// build is the standalone ddnf.Build time (also in layers).
	build                           time.Duration
	npaths, diffs, ranges, dagNodes int
}

// replayTree collects the spans of one replay.
type replayTree struct {
	t    *tracer
	root int
}

func newReplayTree() replayTree {
	t := newTracer()
	return replayTree{t, t.begin(0, -1, "replay")}
}

// span records a call into a layer that started at start and ends now.
func (r replayTree) span(name string, start time.Time) {
	r.t.add(0, r.root, name, start, time.Now())
}

// layers closes the tree and returns the self time of each layer.
func (r replayTree) layers() map[string]time.Duration {
	r.t.end(r.root)
	spans := r.t.opSpans(0)
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

// finish turns the tree into the result: the standalone DAG build time
// moves from the localizer's time to ddnf.build.
func (r *replayResult) finish(tree replayTree) {
	r.layers = tree.layers()
	r.layers["headerloc.localize"] = max(r.layers["headerloc.localize"]-r.build, 0)
	r.layers["ddnf.build"] = r.build
}

// attach adds the replayed layers as virtual children of the operation's
// component span.
func (r replayResult) attach(t *tracer, op int) {
	parent := -1
	for _, s := range t.opSpans(op) {
		if s.Name == r.component {
			parent = s.ID
		}
	}
	if parent < 0 {
		return
	}
	for _, name := range []string{"symbolic.encode", "symbolic.paths", "semdiff.diff", "ddnf.build", "headerloc.localize"} {
		t.addVirtual(op, parent, name, r.layers[name])
	}
}

// timeBuild times ddnf.Build over ranges on its own.
func (r *replayResult) timeBuild(ranges []netaddr.PrefixRange) {
	start := time.Now()
	dag := ddnf.Build(ranges)
	r.build += time.Since(start)
	r.ranges += len(ranges)
	r.dagNodes += len(dag.Nodes)
}

// replayPair replays whichever semantic component the pair exercises,
// striped as wide as the operation striped it.
func replayPair(c1, c2 *ir.Config, stats []core.ComponentStats) replayResult {
	stripes := func(c core.Component) int {
		for _, st := range stats {
			if st.Component == c {
				return st.Stripes
			}
		}
		return 0
	}
	if len(sharedACLs(c1, c2)) > 0 {
		return replayACLs(c1, c2, stripes(core.ComponentACLs))
	}
	return replayRouteMaps(c1, c2, stripes(core.ComponentRouteMaps))
}

// matchedPolicies pairs the policies as the core does: by BGP neighbor
// and redistribution, or failing that by route-map name.
func matchedPolicies(c1, c2 *ir.Config) []core.PolicyPair {
	pairs := core.MatchPolicies(c1, c2)
	if len(pairs) > 0 {
		return pairs
	}
	var names []string
	for n := range c1.RouteMaps {
		if _, ok := c2.RouteMaps[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		pairs = append(pairs, core.PolicyPair{Kind: "route-map", Neighbor: n, Names1: []string{n}, Names2: []string{n}})
	}
	return pairs
}

// replayRouteMaps replays the route-map check. Unstriped, one encoding
// and localizer serve every unique chain pair: enumerate paths, diff,
// localize. Striped, each unique chain pair is diffed per region on
// private encodings while the main encoding and localizer build, then
// the regions' differences are merged and localized.
func replayRouteMaps(c1, c2 *ir.Config, stripes int) replayResult {
	r := replayResult{component: "core.routemaps"}
	pairs := matchedPolicies(c1, c2)
	ranges := append(headerloc.ConfigPrefixRanges(c1), headerloc.ConfigPrefixRanges(c2)...)
	tree := newReplayTree()
	seen := map[string]int{} // chain identity -> differences found
	var enc *symbolic.RouteEncoding
	var loc *headerloc.RouteLocalizer
	for _, p := range pairs {
		key := fmt.Sprintf("%q|%q", p.Names1, p.Names2)
		if n, ok := seen[key]; ok {
			r.diffs += n
			continue
		}
		rm1, rm2 := core.ResolveChain(c1, p.Names1), core.ResolveChain(c2, p.Names2)
		var n int
		if stripes > 1 {
			n = r.stripedRouteMaps(tree, c1, c2, rm1, rm2, stripes, ranges)
		} else {
			if enc == nil {
				r.timeBuild(ranges)
				start := time.Now()
				enc = symbolic.NewRouteEncoding(c1, c2)
				tree.span("symbolic.encode", start)
				start = time.Now()
				loc = headerloc.NewRouteLocalizer(enc, c1, c2)
				tree.span("headerloc.localize", start)
			}
			start := time.Now()
			p1, err1 := enc.EnumeratePaths(c1, rm1)
			p2, err2 := enc.EnumeratePaths(c2, rm2)
			tree.span("symbolic.paths", start)
			if err1 != nil || err2 != nil {
				continue
			}
			r.npaths += len(p1) + len(p2)
			start = time.Now()
			diffs := semdiff.DiffRouteMapPaths(enc, p1, p2)
			tree.span("semdiff.diff", start)
			start = time.Now()
			for _, d := range diffs {
				loc.Localize(d.Inputs)
			}
			tree.span("headerloc.localize", start)
			n = len(diffs)
		}
		seen[key] = n
		r.diffs += n
	}
	r.finish(tree)
	return r
}

// stripedRouteMaps replays one striped chain-pair comparison and returns
// the number of merged differences.
func (r *replayResult) stripedRouteMaps(tree replayTree, c1, c2 *ir.Config, rm1, rm2 *ir.RouteMap, stripes int, ranges []netaddr.PrefixRange) int {
	r.timeBuild(ranges)
	regions := symbolic.StripeRegions(stripes)
	encs := make([]*symbolic.RouteEncoding, len(regions))
	diffs := make([][]semdiff.RouteMapDiff, len(regions))
	paths := make([]int, len(regions))
	var wg sync.WaitGroup
	for s, reg := range regions {
		wg.Add(1)
		go func(s int, lo, hi uint32) {
			defer wg.Done()
			start := time.Now()
			enc := symbolic.NewRouteEncoding(c1, c2)
			region, rsig := enc.RegionBDD(lo, hi), symbolic.RegionSig(lo, hi)
			tree.span("symbolic.encode", start)
			start = time.Now()
			p1, err1 := enc.EnumeratePathsRegion(c1, rm1, region, rsig)
			p2, err2 := enc.EnumeratePathsRegion(c2, rm2, region, rsig)
			tree.span("symbolic.paths", start)
			if err1 != nil || err2 != nil {
				return
			}
			start = time.Now()
			encs[s], diffs[s], paths[s] = enc, semdiff.DiffRouteMapPaths(enc, p1, p2), len(p1)+len(p2)
			tree.span("semdiff.diff", start)
		}(s, reg[0], reg[1])
	}
	start := time.Now()
	main := symbolic.NewRouteEncoding(c1, c2)
	tree.span("symbolic.encode", start)
	start = time.Now()
	loc := headerloc.NewRouteLocalizer(main, c1, c2)
	tree.span("headerloc.localize", start)
	wg.Wait()

	// Merge: a class pair is identified by the clauses its two paths
	// take; its per-region input sets are Or-ed on the main factory.
	merged := map[string]bdd.Node{}
	var order []string
	for s := range regions {
		r.npaths += paths[s]
		memo := map[bdd.Node]bdd.Node{}
		for _, d := range diffs[s] {
			in := bdd.Transfer(main.F, encs[s].F, d.Inputs, memo)
			key := takenKey(d.Path1.Taken) + "/" + takenKey(d.Path2.Taken)
			if prev, ok := merged[key]; ok {
				merged[key] = main.F.Or(prev, in)
				continue
			}
			merged[key] = in
			order = append(order, key)
		}
	}
	start = time.Now()
	for _, k := range order {
		loc.Localize(merged[k])
	}
	tree.span("headerloc.localize", start)
	return len(order)
}

// takenKey identifies a path by the clauses it takes.
func takenKey(taken []*ir.RouteMapClause) string {
	var b strings.Builder
	for _, cl := range taken {
		fmt.Fprintf(&b, "%p,", cl)
	}
	return b.String()
}

// replayACLs replays the ACL check for every same-named pair: encode,
// diff (striped across source-address regions when the operation
// striped), and when they differ build the localizer on a main encoding
// and localize every merged difference.
func replayACLs(c1, c2 *ir.Config, stripes int) replayResult {
	r := replayResult{component: "core.acls"}
	tree := newReplayTree()
	for _, name := range sharedACLs(c1, c2) {
		a1, a2 := c1.ACLs[name], c2.ACLs[name]
		var enc *symbolic.PacketEncoding
		var inputs []bdd.Node
		if stripes > 1 {
			enc, inputs = stripedACLs(tree, a1, a2, stripes)
		} else {
			start := time.Now()
			enc = symbolic.NewPacketEncoding()
			tree.span("symbolic.encode", start)
			start = time.Now()
			for _, d := range semdiff.DiffACLs(enc, a1, a2) {
				inputs = append(inputs, d.Inputs)
			}
			tree.span("semdiff.diff", start)
		}
		r.diffs += len(inputs)
		if len(inputs) == 0 {
			continue
		}
		r.timeBuild(aclRanges(func(l *ir.ACLLine) []netaddr.Wildcard { return l.Src }, a1, a2))
		r.timeBuild(aclRanges(func(l *ir.ACLLine) []netaddr.Wildcard { return l.Dst }, a1, a2))
		start := time.Now()
		loc := headerloc.NewACLLocalizer(enc, a1, a2)
		for _, in := range inputs {
			loc.Localize(in)
		}
		tree.span("headerloc.localize", start)
	}
	r.finish(tree)
	return r
}

// stripedACLs diffs one ACL pair per source-address region on private
// encodings, then merges the regions' input sets per class pair on a
// fresh main encoding.
func stripedACLs(tree replayTree, a1, a2 *ir.ACL, stripes int) (*symbolic.PacketEncoding, []bdd.Node) {
	start := time.Now()
	sigs := symbolic.NewACLSigTable(a1, a2)
	for _, acl := range []*ir.ACL{a1, a2} {
		for _, l := range acl.Lines {
			sigs.LineSig(l)
		}
	}
	tree.span("symbolic.encode", start)
	w := sigs.SrcWindow()
	regions := symbolic.StripeRegions(stripes)
	encs := make([]*symbolic.PacketEncoding, len(regions))
	diffs := make([][]semdiff.ACLDiff, len(regions))
	var wg sync.WaitGroup
	for s, reg := range regions {
		wg.Add(1)
		go func(s int, lo, hi uint32) {
			defer wg.Done()
			start := time.Now()
			enc := symbolic.NewPacketEncoding()
			region := enc.SrcRegionBDD(w, lo, hi)
			tree.span("symbolic.encode", start)
			start = time.Now()
			encs[s], diffs[s] = enc, semdiff.DiffACLsRegion(enc, a1, a2, region, symbolic.RegionSig(lo, hi), sigs)
			tree.span("semdiff.diff", start)
		}(s, reg[0], reg[1])
	}
	wg.Wait()
	start = time.Now()
	main := symbolic.NewPacketEncoding()
	tree.span("symbolic.encode", start)
	merged := map[[2]*ir.ACLLine]int{}
	var inputs []bdd.Node
	for s := range regions {
		memo := map[bdd.Node]bdd.Node{}
		for _, d := range diffs[s] {
			in := bdd.Transfer(main.F, encs[s].F, d.Inputs, memo)
			key := [2]*ir.ACLLine{d.Path1.Line, d.Path2.Line}
			if i, ok := merged[key]; ok {
				inputs[i] = main.F.Or(inputs[i], in)
				continue
			}
			merged[key] = len(inputs)
			inputs = append(inputs, in)
		}
	}
	return main, inputs
}

// aclRanges lists the address constants of the ACLs' contiguous
// wildcards as /32 ranges, the vocabulary the ACL localizer's DAGs are
// built over.
func aclRanges(field func(*ir.ACLLine) []netaddr.Wildcard, acls ...*ir.ACL) []netaddr.PrefixRange {
	var out []netaddr.PrefixRange
	for _, acl := range acls {
		for _, l := range acl.Lines {
			for _, w := range field(l) {
				if p, ok := w.AsPrefix(); ok {
					out = append(out, netaddr.PrefixRange{Prefix: p, Lo: 32, Hi: 32})
				}
			}
		}
	}
	return out
}

func sharedACLs(c1, c2 *ir.Config) []string {
	var names []string
	for n := range c1.ACLs {
		if _, ok := c2.ACLs[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

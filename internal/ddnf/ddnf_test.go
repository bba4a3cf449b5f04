package ddnf

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/netaddr"
	"repro/internal/symbolic"
)

// figure3Ranges builds a concrete instance of the paper's Figure 3 DAG:
// A is the universe; B and C sit under A; D, E under B; F under C; G
// under F.
func figure3Ranges() map[string]netaddr.PrefixRange {
	return map[string]netaddr.PrefixRange{
		"A": netaddr.Universe,
		"B": netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32"),
		"C": netaddr.MustParsePrefixRange("20.0.0.0/8 : 8-32"),
		"D": netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-32"),
		"E": netaddr.MustParsePrefixRange("10.2.0.0/16 : 16-32"),
		"F": netaddr.MustParsePrefixRange("20.1.0.0/16 : 16-32"),
		"G": netaddr.MustParsePrefixRange("20.1.1.0/24 : 24-32"),
	}
}

func routeOps(enc *symbolic.RouteEncoding) SetOps {
	return SetOps{
		F:        enc.F,
		RangeBDD: enc.PrefixRangeBDD,
		Universe: enc.WellFormed,
	}
}

func TestBuildDAGStructure(t *testing.T) {
	rs := figure3Ranges()
	d := Build([]netaddr.PrefixRange{rs["B"], rs["C"], rs["D"], rs["E"], rs["F"], rs["G"]})
	if d.Root == nil || !d.Root.Range.Equal(netaddr.Universe) {
		t.Fatal("root must be the universe")
	}
	if len(d.Nodes) != 7 {
		t.Fatalf("nodes = %d, want 7", len(d.Nodes))
	}
	find := func(r netaddr.PrefixRange) *Node {
		for _, n := range d.Nodes {
			if n.Range.Equal(r) {
				return n
			}
		}
		t.Fatalf("missing node %v", r)
		return nil
	}
	b := find(rs["B"])
	if len(b.Children) != 2 {
		t.Errorf("B children = %d, want D and E", len(b.Children))
	}
	f := find(rs["F"])
	if len(f.Children) != 1 || !f.Children[0].Range.Equal(rs["G"]) {
		t.Errorf("F children = %+v", f.Children)
	}
	if len(d.Root.Children) != 2 {
		t.Errorf("root children = %d, want B and C", len(d.Root.Children))
	}
	// Immediate containment only: G is not a direct child of C.
	c := find(rs["C"])
	for _, ch := range c.Children {
		if ch.Range.Equal(rs["G"]) {
			t.Error("G must hang off F, not C (no transitive edges)")
		}
	}
}

func TestCloseUnderIntersection(t *testing.T) {
	// Two overlapping ranges force their intersection into the label set.
	r1 := netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-24")
	r2 := netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-32")
	d := Build([]netaddr.PrefixRange{r1, r2})
	want := netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-24")
	var found bool
	for _, n := range d.Nodes {
		if n.Range.Equal(want) {
			found = true
		}
	}
	if !found {
		t.Errorf("intersection %v missing from %v", want, dagLabels(d))
	}
	// Universe present exactly once.
	count := 0
	for _, n := range d.Nodes {
		if n.Range.Equal(netaddr.Universe) {
			count++
		}
	}
	if count != 1 {
		t.Errorf("universe appears %d times", count)
	}
}

// TestGetMatchFigure3 reproduces the paper's Figure 3 walk-through:
// S = (B − D) ∪ (C − F) ∪ G yields GetMatch result {B−D, C−(F−G)} and the
// simplification pass turns it into {B−D, C−F, G}.
func TestGetMatchFigure3(t *testing.T) {
	rs := figure3Ranges()
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	d := Build([]netaddr.PrefixRange{rs["B"], rs["C"], rs["D"], rs["E"], rs["F"], rs["G"]})

	S := o.F.OrN(
		o.F.Diff(o.F.And(o.RangeBDD(rs["B"]), o.Universe), o.RangeBDD(rs["D"])),
		o.F.Diff(o.F.And(o.RangeBDD(rs["C"]), o.Universe), o.RangeBDD(rs["F"])),
		o.F.And(o.RangeBDD(rs["G"]), o.Universe),
	)
	terms, exact := d.GetMatch(o, S)
	if !exact {
		t.Fatal("representation should be exact")
	}
	if len(terms) != 2 {
		t.Fatalf("terms = %+v, want 2", terms)
	}
	// First term: B − D.
	if !terms[0].Include.Equal(rs["B"]) || len(terms[0].Exclude) != 1 ||
		!terms[0].Exclude[0].Include.Equal(rs["D"]) {
		t.Errorf("term 0 = %+v, want B − D", terms[0])
	}
	// Second term: C − (F − G).
	if !terms[1].Include.Equal(rs["C"]) || len(terms[1].Exclude) != 1 {
		t.Fatalf("term 1 = %+v, want C − (F − G)", terms[1])
	}
	nested := terms[1].Exclude[0]
	if !nested.Include.Equal(rs["F"]) || len(nested.Exclude) != 1 ||
		!nested.Exclude[0].Include.Equal(rs["G"]) {
		t.Errorf("nested = %+v, want F − G", nested)
	}

	flat := Simplify(terms)
	if len(flat) != 3 {
		t.Fatalf("flat = %+v, want 3 terms", flat)
	}
	// Sorted order: 10/8−D, 20/8−F, 20.1.1/24.
	if !flat[0].Include.Equal(rs["B"]) || len(flat[0].Exclude) != 1 || !flat[0].Exclude[0].Equal(rs["D"]) {
		t.Errorf("flat 0 = %v", flat[0])
	}
	if !flat[1].Include.Equal(rs["C"]) || len(flat[1].Exclude) != 1 || !flat[1].Exclude[0].Equal(rs["F"]) {
		t.Errorf("flat 1 = %v", flat[1])
	}
	if !flat[2].Include.Equal(rs["G"]) || len(flat[2].Exclude) != 0 {
		t.Errorf("flat 2 = %v", flat[2])
	}

	// The flattened representation still denotes exactly S.
	union := bdd.False
	for _, ft := range flat {
		n := o.F.And(o.RangeBDD(ft.Include), o.Universe)
		for _, x := range ft.Exclude {
			n = o.F.Diff(n, o.RangeBDD(x))
		}
		union = o.F.Or(union, n)
	}
	if union != S {
		t.Error("simplified terms denote a different set")
	}
}

func TestGetMatchWholeUniverse(t *testing.T) {
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	d := Build([]netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")})
	terms, exact := d.GetMatch(o, o.Universe)
	if !exact || len(terms) != 1 || !terms[0].Include.Equal(netaddr.Universe) || len(terms[0].Exclude) != 0 {
		t.Errorf("whole universe should be the single term U: %+v", terms)
	}
}

func TestGetMatchEmptySet(t *testing.T) {
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	d := Build([]netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")})
	terms, exact := d.GetMatch(o, bdd.False)
	if !exact || len(terms) != 0 {
		t.Errorf("empty set should produce no terms: %+v", terms)
	}
}

// TestGetMatchTable2Shape reproduces the header localization of the
// paper's Table 2(a): the impacted set "NETS_cisco minus NETS_juniper" is
// rendered as included 16-32 ranges minus excluded 16-16 ranges.
func TestGetMatchTable2Shape(t *testing.T) {
	cisco1 := netaddr.MustParsePrefixRange("10.9.0.0/16 : 16-32")
	cisco2 := netaddr.MustParsePrefixRange("10.100.0.0/16 : 16-32")
	jun1 := netaddr.MustParsePrefixRange("10.9.0.0/16 : 16-16")
	jun2 := netaddr.MustParsePrefixRange("10.100.0.0/16 : 16-16")
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	d := Build([]netaddr.PrefixRange{cisco1, cisco2, jun1, jun2})

	S := o.F.OrN(
		o.F.Diff(o.F.And(o.RangeBDD(cisco1), o.Universe), o.RangeBDD(jun1)),
		o.F.Diff(o.F.And(o.RangeBDD(cisco2), o.Universe), o.RangeBDD(jun2)),
	)
	terms, exact := d.GetMatch(o, S)
	if !exact {
		t.Fatal("should be exact")
	}
	flat := Simplify(terms)
	if len(flat) != 2 {
		t.Fatalf("flat = %+v", flat)
	}
	if !flat[0].Include.Equal(cisco1) || len(flat[0].Exclude) != 1 || !flat[0].Exclude[0].Equal(jun1) {
		t.Errorf("flat 0 = %v, want 10.9/16:16-32 − 10.9/16:16-16", flat[0])
	}
	if !flat[1].Include.Equal(cisco2) || len(flat[1].Exclude) != 1 || !flat[1].Exclude[0].Equal(jun2) {
		t.Errorf("flat 1 = %v", flat[1])
	}
}

func TestGetMatchInexactFallback(t *testing.T) {
	// A set not expressible over the vocabulary: a single /32 when only
	// a /8 range is known. GetMatch must report inexactness.
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	d := Build([]netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")})
	S := o.F.And(enc.PrefixBDD(netaddr.MustParsePrefix("10.1.2.3/32")), o.Universe)
	terms, exact := d.GetMatch(o, S)
	if exact {
		t.Errorf("localization cannot be exact here: %+v", terms)
	}
	// Under-approximation: whatever is returned must be inside S.
	union := bdd.False
	for _, t2 := range terms {
		union = o.F.Or(union, termBDD(o, t2))
	}
	if o.F.Diff(union, S) != bdd.False {
		t.Error("terms must under-approximate S")
	}
}

func TestFlatTermString(t *testing.T) {
	ft := FlatTerm{
		Include: netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32"),
		Exclude: []netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-32")},
	}
	want := "10.0.0.0/8 : 8-32 − 10.1.0.0/16 : 16-32"
	if ft.String() != want {
		t.Errorf("String = %q, want %q", ft.String(), want)
	}
}

func TestBuildWithDuplicatesAndEmpties(t *testing.T) {
	r := netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")
	empty := netaddr.PrefixRange{Prefix: netaddr.MustParsePrefix("10.0.0.0/8"), Lo: 20, Hi: 10}
	d := Build([]netaddr.PrefixRange{r, r, empty})
	if len(d.Nodes) != 2 { // universe + r
		t.Errorf("nodes = %d, want 2", len(d.Nodes))
	}
}

func TestDot(t *testing.T) {
	d := Build([]netaddr.PrefixRange{
		netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32"),
		netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-32"),
	})
	dot := d.Dot()
	for _, want := range []string{"digraph", "10.0.0.0/8 : 8-32", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}

// buildReference is the pairwise definition of the DAG, kept as the
// oracle for Build: close the labels by intersecting every pair until
// nothing new appears, then make m a parent of n iff m ⊋ n and no third
// label sits strictly between them. It is cubic in the label count.
func buildReference(ranges []netaddr.PrefixRange) *DAG {
	labels := referenceClosure(ranges)
	nodes := make([]*Node, len(labels))
	for i, r := range labels {
		nodes[i] = &Node{Range: r, id: i}
	}
	strictlyContains := func(a, b netaddr.PrefixRange) bool {
		return a.ContainsRange(b) && !b.ContainsRange(a)
	}
	for _, m := range nodes {
		for _, n := range nodes {
			if m == n || !strictlyContains(m.Range, n.Range) {
				continue
			}
			immediate := true
			for _, k := range nodes {
				if k == m || k == n {
					continue
				}
				if strictlyContains(m.Range, k.Range) && strictlyContains(k.Range, n.Range) {
					immediate = false
					break
				}
			}
			if immediate {
				m.Children = append(m.Children, n)
			}
		}
	}
	var root *Node
	for _, n := range nodes {
		if n.Range.Equal(netaddr.Universe) {
			root = n
			break
		}
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Range.Compare(n.Children[j].Range) < 0
		})
	}
	return &DAG{Root: root, Nodes: nodes}
}

// referenceClosure adds the universe, closes the set under pairwise
// intersection, and removes empty and duplicate ranges, sorted.
func referenceClosure(ranges []netaddr.PrefixRange) []netaddr.PrefixRange {
	seen := map[netaddr.PrefixRange]bool{}
	var out []netaddr.PrefixRange
	add := func(r netaddr.PrefixRange) bool {
		if r.IsEmpty() || seen[r] {
			return false
		}
		seen[r] = true
		out = append(out, r)
		return true
	}
	add(netaddr.Universe)
	for _, r := range ranges {
		add(r)
	}
	for changed := true; changed; {
		changed = false
		n := len(out)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if inter, ok := out[i].Intersect(out[j]); ok {
					if add(inter) {
						changed = true
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// dagDiff describes the first difference between two DAGs' node order,
// children lists and root, or returns "" when they are identical.
func dagDiff(got, want *DAG) string {
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Sprintf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.Range != w.Range {
			return fmt.Sprintf("node %d = %v, want %v", i, g.Range, w.Range)
		}
		if len(g.Children) != len(w.Children) {
			return fmt.Sprintf("node %v children %v, want %v", g.Range, rangesOf(g.Children), rangesOf(w.Children))
		}
		for j := range g.Children {
			if g.Children[j].Range != w.Children[j].Range {
				return fmt.Sprintf("node %v children %v, want %v", g.Range, rangesOf(g.Children), rangesOf(w.Children))
			}
		}
	}
	if (got.Root == nil) != (want.Root == nil) || got.Root != nil && got.Root.Range != want.Root.Range {
		return "roots differ"
	}
	return ""
}

func rangesOf(ns []*Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.Range.String())
	}
	return out
}

func dagLabels(d *DAG) []string { return rangesOf(d.Nodes) }

// randomRanges draws a range set shaped to reach the builder's corners:
// prefixes nested under a few shared roots, repeated prefixes with
// different intervals, exact duplicates, empty ranges, the universe,
// Lo below the prefix length, and deep chains from /0 to /32.
func randomRanges(rng *rand.Rand) []netaddr.PrefixRange {
	var pool []netaddr.Prefix
	for i := 0; i < 1+rng.Intn(3); i++ {
		pool = append(pool, netaddr.NewPrefix(netaddr.Addr(rng.Uint32()), uint8(rng.Intn(17))))
	}
	length := func() uint8 { return uint8(rng.Intn(33)) }
	var out []netaddr.PrefixRange
	for i, n := 0, rng.Intn(40); i < n; i++ {
		var p netaddr.Prefix
		switch rng.Intn(3) {
		case 0: // a pool prefix again
			p = pool[rng.Intn(len(pool))]
		case 1: // a descendant of a pool prefix, added to the pool
			base := pool[rng.Intn(len(pool))]
			l := min(32, int(base.Len)+1+rng.Intn(8))
			p = netaddr.NewPrefix(netaddr.Addr(uint32(base.Addr)|rng.Uint32()&^netaddr.Mask(int(base.Len))), uint8(l))
			pool = append(pool, p)
		default:
			p = netaddr.NewPrefix(netaddr.Addr(rng.Uint32()), length())
		}
		var r netaddr.PrefixRange
		switch rng.Intn(8) {
		case 0:
			r = netaddr.Universe
		case 1:
			r = netaddr.ExactRange(p)
		case 2: // empty
			r = netaddr.PrefixRange{Prefix: p, Lo: 20 + uint8(rng.Intn(13)), Hi: uint8(rng.Intn(20))}
		case 3: // Lo below the prefix length
			r = netaddr.PrefixRange{Prefix: p, Lo: uint8(rng.Intn(int(p.Len) + 1)), Hi: max(p.Len, length())}
		case 4:
			if len(out) > 0 {
				r = out[rng.Intn(len(out))]
				break
			}
			fallthrough
		default:
			lo, hi := length(), length()
			if lo > hi {
				lo, hi = hi, lo
			}
			r = netaddr.PrefixRange{Prefix: p, Lo: lo, Hi: hi}
		}
		out = append(out, r)
	}
	if rng.Intn(4) == 0 { // a deep chain along one address
		a := netaddr.Addr(rng.Uint32())
		for l := 0; l <= 32; l += 1 + rng.Intn(3) {
			p := netaddr.NewPrefix(a, uint8(l))
			out = append(out, netaddr.PrefixRange{Prefix: p, Lo: uint8(l), Hi: uint8(l + rng.Intn(33-l))})
		}
	}
	return out
}

func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		ranges := randomRanges(rng)
		if diff := dagDiff(Build(ranges), buildReference(ranges)); diff != "" {
			t.Fatalf("set %d %v: %s", i, ranges, diff)
		}
	}
}

// decodeRanges turns fuzz bytes into ranges, seven bytes each: address,
// prefix length, Lo and Hi (up to 33, so empty ranges and Hi beyond the
// universe occur).
func decodeRanges(data []byte) []netaddr.PrefixRange {
	var out []netaddr.PrefixRange
	for ; len(data) >= 7 && len(out) < 64; data = data[7:] {
		a := netaddr.Addr(uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3]))
		out = append(out, netaddr.PrefixRange{
			Prefix: netaddr.NewPrefix(a, data[4]%33),
			Lo:     data[5] % 34,
			Hi:     data[6] % 34,
		})
	}
	return out
}

func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 0, 0, 0, 8, 8, 24, 10, 1, 0, 0, 16, 16, 32})
	f.Add([]byte{10, 0, 0, 0, 8, 0, 33, 10, 0, 0, 0, 8, 30, 2, 0, 0, 0, 0, 0, 0, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		ranges := decodeRanges(data)
		if diff := dagDiff(Build(ranges), buildReference(ranges)); diff != "" {
			t.Fatalf("%v: %s", ranges, diff)
		}
	})
}

// getMatchReference is GetMatch without the Matcher's caches or its
// pruning: it walks the whole DAG, every visit rebuilds its sets, and a
// shared node is walked once per path.
func getMatchReference(o SetOps, s bdd.Node, node *Node) []Term {
	r := o.F.And(o.RangeBDD(node.Range), o.Universe)
	if len(node.Children) == 0 {
		if r != bdd.False && o.F.Implies(r, s) {
			return []Term{{Include: node.Range}}
		}
		return nil
	}
	rem := o.RangeBDD(node.Range)
	for _, c := range node.Children {
		rem = o.F.Diff(rem, o.RangeBDD(c.Range))
	}
	rem = o.F.And(rem, o.Universe)
	if rem != bdd.False && o.F.Implies(rem, s) {
		notS := o.F.And(o.F.Not(s), o.Universe)
		var nonmatches []Term
		for _, c := range node.Children {
			nonmatches = append(nonmatches, getMatchReference(o, notS, c)...)
		}
		return []Term{{Include: node.Range, Exclude: dedupeTerms(nonmatches)}}
	}
	var out []Term
	for _, c := range node.Children {
		out = append(out, getMatchReference(o, s, c)...)
	}
	return dedupeTerms(out)
}

// TestMatcherMatchesReference checks one Matcher, reused across queries,
// against the full uncached walk on random DAGs and random sets: unions
// and differences of the DAG's own ranges (exact), their complements,
// and stray /32s or ranges outside the vocabulary (often inexact). The
// terms must be identical, in order, and so must the exactness verdict.
func TestMatcherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	exacts := map[bool]int{}
	for i := 0; i < 120; i++ {
		d := Build(randomRanges(rng))
		m := d.NewMatcher(o)
		for q := 0; q < 6; q++ {
			s := bdd.False
			for k := 0; k < 1+rng.Intn(4); k++ {
				a := o.RangeBDD(d.Nodes[rng.Intn(len(d.Nodes))].Range)
				b := o.RangeBDD(d.Nodes[rng.Intn(len(d.Nodes))].Range)
				switch rng.Intn(5) {
				case 0:
					s = o.F.Or(s, a)
				case 1:
					s = o.F.Or(s, o.F.Diff(a, b))
				case 2:
					s = o.F.Or(s, o.F.Not(a))
				case 3:
					s = o.F.Or(s, enc.PrefixBDD(netaddr.NewPrefix(netaddr.Addr(rng.Uint32()), 32)))
				default:
					lo := uint8(rng.Intn(33))
					p := netaddr.NewPrefix(netaddr.Addr(rng.Uint32()), uint8(rng.Intn(int(lo)+1)))
					s = o.F.Or(s, o.RangeBDD(netaddr.PrefixRange{Prefix: p, Lo: lo, Hi: lo + uint8(rng.Intn(33-int(lo)))}))
				}
			}
			got, exact := m.GetMatch(s)
			s = o.F.And(s, o.Universe)
			want := getMatchReference(o, s, d.Root)
			if len(got) != len(want) {
				t.Fatalf("dag %d query %d: %d terms, want %d", i, q, len(got), len(want))
			}
			for k := range got {
				if !termsEqual(got[k], want[k]) {
					t.Fatalf("dag %d query %d: term %d = %+v, want %+v", i, q, k, got[k], want[k])
				}
			}
			union := bdd.False
			for _, tm := range want {
				union = o.F.Or(union, termBDD(o, tm))
			}
			if exact != (union == s) {
				t.Fatalf("dag %d query %d: exact = %v", i, q, exact)
			}
			exacts[exact]++
		}
	}
	if exacts[true] == 0 || exacts[false] == 0 {
		t.Errorf("queries did not cover both verdicts: %v", exacts)
	}
	t.Logf("exact/inexact queries: %d/%d", exacts[true], exacts[false])
}

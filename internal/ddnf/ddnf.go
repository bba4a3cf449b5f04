// Package ddnf implements the prefix-range DAG of Campion's
// HeaderLocalize algorithm (§3.2). The structure is analogous to the ddNF
// data structure for packet header spaces, but nodes are labeled with
// prefix ranges: the root is the universe (0.0.0.0/0, 0-32), labels are
// closed under intersection, and edges encode immediate containment.
// GetMatch traverses the DAG to express an input set S as a minimal union
// of terms "R − X₁ − … − Xₖ" over the configuration's own prefix ranges.
//
// Build works over the binary trie of the ranges' prefixes: two ranges
// intersect only along a trie path, so the intersection closure and the
// immediate-containment edges are computed per prefix against the at
// most 33 prefixes above it, near-linear in the number of labels instead
// of cubic (the pairwise definition survives as the tests' reference
// oracle). A Matcher caches each node's BDDs across GetMatch calls and
// descends only below nodes whose range meets the queried set, visiting
// each node at most once per call, so a query touching a few prefixes
// costs about the depth of their trie paths rather than the size of the
// DAG. Its cached
// nodes share the lifetime of the SetOps' Universe, so no bdd.Factory
// Reset may run while a Matcher is in use.
package ddnf

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/netaddr"
)

// Node is a DAG node labeled with a prefix range.
type Node struct {
	Range    netaddr.PrefixRange
	Children []*Node
	id       int // index in DAG.Nodes
}

// DAG is the prefix-range containment DAG.
type DAG struct {
	Root  *Node
	Nodes []*Node
}

// interval is a length interval [lo, hi] of a prefix range.
type interval struct{ lo, hi uint8 }

func (x interval) contains(y interval) bool { return x.lo <= y.lo && y.hi <= x.hi }

func (x interval) intersect(y interval) (interval, bool) {
	z := interval{max(x.lo, y.lo), min(x.hi, y.hi)}
	return z, z.lo <= z.hi
}

// bucket holds the closed labels that share one prefix: a node of the
// binary prefix trie that carries at least one range.
type bucket struct {
	prefix netaddr.Prefix
	up     *bucket    // nearest ancestor bucket (nil for 0.0.0.0/0)
	ivs    []interval // closed intervals, sorted by (lo, hi)
	nodes  []*Node    // parallel to ivs
	// byWidth lists ivs indices by increasing hi−lo: a range strictly
	// inside another of the same prefix comes first.
	byWidth []int
}

// Build constructs the DAG from the prefix ranges extracted from a pair
// of configurations: the universe is added, the set is closed under
// intersection, duplicates (semantic) are removed, and immediate
// containment edges are installed (properties 1–4 in the paper).
//
// The construction runs over the binary trie of the ranges' prefixes,
// using three facts about prefix ranges:
//
//   - Closure never creates a prefix. Two ranges intersect only when one
//     prefix is a trie ancestor of (or equal to) the other; the result
//     keeps the longer prefix and intersects the length intervals.
//   - Closure is per prefix. The labels at a prefix are the intersections
//     of its own intervals with each other and with the closed labels of
//     its trie ancestors, which are already closed when the prefixes are
//     visited in (address, length) order. Length intervals lie in
//     [0, 32], so a prefix holds at most 561 of them.
//   - Parents are local. A node's immediate parents are the minimal
//     elements among its strict containers, and every container sits on
//     the prefix's own trie path (at most 33 buckets).
//
// With k labels per prefix and depth d ≤ 33 the cost is O(n·d·k) for n
// labels, against the O(n³) of the pairwise definition, which the tests
// keep as the reference. Prefixes must be canonical (host bits zero).
// Nodes come out sorted by PrefixRange.Compare and every Children list
// is sorted the same way.
func Build(ranges []netaddr.PrefixRange) *DAG {
	buckets := closeOverTrie(ranges)
	d := &DAG{}
	for _, b := range buckets {
		b.nodes = make([]*Node, len(b.ivs))
		for i, x := range b.ivs {
			n := &Node{Range: netaddr.PrefixRange{Prefix: b.prefix, Lo: x.lo, Hi: x.hi}, id: len(d.Nodes)}
			b.nodes[i] = n
			d.Nodes = append(d.Nodes, n)
			if n.Range == netaddr.Universe {
				d.Root = n
			}
		}
		b.byWidth = make([]int, len(b.ivs))
		for i := range b.byWidth {
			b.byWidth[i] = i
		}
		slices.SortFunc(b.byWidth, func(i, j int) int {
			return cmp.Compare(b.ivs[i].hi-b.ivs[i].lo, b.ivs[j].hi-b.ivs[j].lo)
		})
	}
	// Parents, found from each child. Buckets are visited deepest first
	// and each bucket's intervals narrowest first, so any container
	// strictly inside a candidate has already been seen; a candidate is
	// an immediate parent iff no parent found so far lies inside it.
	// Nodes are visited in sorted order, so every Children list is
	// appended to in sorted order.
	var parentIvs []interval
	for _, b := range buckets {
		for i, x := range b.ivs {
			n := b.nodes[i]
			parentIvs = parentIvs[:0]
			for c := b; c != nil; c = c.up {
			candidates:
				for _, j := range c.byWidth {
					y := c.ivs[j]
					if !y.contains(x) || (c == b && y == x) {
						continue
					}
					for _, z := range parentIvs {
						if y.contains(z) {
							continue candidates
						}
					}
					c.nodes[j].Children = append(c.nodes[j].Children, n)
					parentIvs = append(parentIvs, y)
				}
			}
		}
	}
	return d
}

// closeOverTrie groups the non-empty ranges (plus the universe) by
// prefix and closes each prefix's intervals against its trie ancestors.
// The buckets come back in (address, length) order, which visits every
// trie ancestor before its descendants.
func closeOverTrie(ranges []netaddr.PrefixRange) []*bucket {
	own := map[netaddr.Prefix][]interval{}
	for _, r := range append([]netaddr.PrefixRange{netaddr.Universe}, ranges...) {
		if !r.IsEmpty() {
			own[r.Prefix] = append(own[r.Prefix], interval{r.Lo, r.Hi})
		}
	}
	prefixes := make([]netaddr.Prefix, 0, len(own))
	for p := range own {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Compare(prefixes[j]) < 0 })

	// The stack holds the current trie path; chain[i] is the closed
	// interval set of every label on the path down to stack[i].
	var stack []*bucket
	var chain [][]interval
	out := make([]*bucket, 0, len(prefixes))
	for _, p := range prefixes {
		for len(stack) > 0 && !stack[len(stack)-1].prefix.ContainsPrefix(p) {
			stack, chain = stack[:len(stack)-1], chain[:len(chain)-1]
		}
		b := &bucket{prefix: p}
		var anc []interval
		if len(stack) > 0 {
			b.up = stack[len(stack)-1]
			anc = chain[len(chain)-1]
		}
		// The prefix's own intervals closed among themselves: on a line,
		// every intersection of a set of intervals is the intersection
		// of two of them, so pairs suffice.
		mine := sortUnique(own[p])
		var ivs []interval
		for i, x := range mine {
			for _, y := range mine[i:] {
				if z, ok := x.intersect(y); ok {
					ivs = append(ivs, z)
				}
			}
		}
		// Then against the ancestors' labels. Both sets are closed, so
		// their pairwise products close the union.
		ivs = sortUnique(ivs)
		n := len(ivs)
		for _, a := range anc {
			for _, x := range ivs[:n] {
				if z, ok := a.intersect(x); ok {
					ivs = append(ivs, z)
				}
			}
		}
		b.ivs = sortUnique(ivs)
		out = append(out, b)
		stack = append(stack, b)
		chain = append(chain, sortUnique(slices.Concat(anc, b.ivs)))
	}
	return out
}

// sortUnique sorts intervals by (lo, hi) and drops duplicates, in place.
func sortUnique(ivs []interval) []interval {
	slices.SortFunc(ivs, func(x, y interval) int {
		return cmp.Or(cmp.Compare(x.lo, y.lo), cmp.Compare(x.hi, y.hi))
	})
	return slices.Compact(ivs)
}

// Term is one element of GetMatch's result: the range Include minus the
// nested terms Exclude. After Simplify, Exclude entries have no further
// nesting.
type Term struct {
	Include netaddr.PrefixRange
	Exclude []Term
}

// FlatTerm is a simplified term: a range minus a list of plain ranges.
type FlatTerm struct {
	Include netaddr.PrefixRange
	Exclude []netaddr.PrefixRange
}

// SetOps supplies the BDD semantics GetMatch needs: the symbolic set for
// a range, and the universe of valid (well-formed) points. The same DAG
// logic thereby serves both route-advertisement prefix localization and
// ACL address localization.
type SetOps struct {
	F *bdd.Factory
	// RangeBDD returns the well-formed points belonging to the range.
	RangeBDD func(netaddr.PrefixRange) bdd.Node
	// Universe is the BDD of all well-formed points.
	Universe bdd.Node
}

// Matcher answers GetMatch queries over one DAG and one SetOps. It
// caches each node's range∧Universe BDD and, for non-leaf nodes, its
// remainder BDD (the range minus its children) across calls. A call
// descends only below nodes whose range meets the set: below a range
// disjoint from S every range is disjoint from S too, so no term can
// come from there. Remainders are built on the first visit that needs
// one, and within one call each (set, node) visit is answered once, so
// a node reachable through several parents is walked once. The cached
// nodes live as long as o.Universe does: like any holder of Universe,
// the Matcher is invalid after a bdd.Factory Reset.
type Matcher struct {
	d                *DAG
	o                SetOps
	rng, rem         []bdd.Node
	haveRng, haveRem []bool
	memo             map[visit][]Term // per GetMatch call
}

type visit struct {
	s  bdd.Node
	id int
}

// NewMatcher prepares GetMatch queries over d with the semantics o.
func (d *DAG) NewMatcher(o SetOps) *Matcher {
	n := len(d.Nodes)
	return &Matcher{
		d:       d,
		o:       o,
		rng:     make([]bdd.Node, n),
		rem:     make([]bdd.Node, n),
		haveRng: make([]bool, n),
		haveRem: make([]bool, n),
	}
}

// rangeSet returns node's range∧Universe.
func (m *Matcher) rangeSet(n *Node) bdd.Node {
	if !m.haveRng[n.id] {
		m.rng[n.id] = m.o.F.And(m.o.RangeBDD(n.Range), m.o.Universe)
		m.haveRng[n.id] = true
	}
	return m.rng[n.id]
}

// remainder returns node's range minus its children, ∧Universe.
func (m *Matcher) remainder(n *Node) bdd.Node {
	if !m.haveRem[n.id] {
		rem := m.rangeSet(n)
		for _, c := range n.Children {
			rem = m.o.F.Diff(rem, m.rangeSet(c))
		}
		m.rem[n.id] = rem
		m.haveRem[n.id] = true
	}
	return m.rem[n.id]
}

// GetMatch expresses S (a BDD subset of the universe) in terms of the
// DAG's prefix ranges, following the paper's recursive algorithm. The
// boolean result reports whether the representation is exact; it can be
// false when S was built from constructs outside the range vocabulary
// (e.g. non-contiguous wildcard masks), in which case the terms
// under-approximate S.
func (d *DAG) GetMatch(o SetOps, s bdd.Node) ([]Term, bool) {
	return d.NewMatcher(o).GetMatch(s)
}

// GetMatch is DAG.GetMatch with the Matcher's caches.
func (m *Matcher) GetMatch(s bdd.Node) ([]Term, bool) {
	o := m.o
	if m.d.Root == nil {
		return nil, s == bdd.False
	}
	s = o.F.And(s, o.Universe)
	m.memo = map[visit][]Term{}
	terms := m.getMatch(s, m.d.Root)
	m.memo = nil
	// Exactness check: the union of the terms must equal S.
	union := bdd.False
	for _, t := range terms {
		union = o.F.Or(union, termBDD(o, t))
	}
	return terms, union == s
}

func (m *Matcher) getMatch(s bdd.Node, node *Node) []Term {
	v := visit{s, node.id}
	if ts, ok := m.memo[v]; ok {
		return ts
	}
	f := m.o.F
	r := m.rangeSet(node)
	var out []Term
	switch {
	case len(node.Children) == 0:
		if r != bdd.False && f.Implies(r, s) {
			out = []Term{{Include: node.Range}}
		}
	case f.And(r, s) == bdd.False:
		// Every descendant's range lies inside r, so neither the leaf
		// test nor the remainder test can succeed anywhere below. (A
		// leaf needs no such test: its own test is one operation.)
	default:
		if rem := m.remainder(node); rem != bdd.False && f.Implies(rem, s) {
			notS := f.And(f.Not(s), m.o.Universe)
			var nonmatches []Term
			for _, c := range node.Children {
				nonmatches = append(nonmatches, m.getMatch(notS, c)...)
			}
			out = []Term{{Include: node.Range, Exclude: dedupeTerms(nonmatches)}}
			break
		}
		for _, c := range node.Children {
			out = append(out, m.getMatch(s, c)...)
		}
		out = dedupeTerms(out)
	}
	m.memo[v] = out
	return out
}

// dedupeTerms removes duplicate terms (a node reachable through two
// parents is visited twice).
func dedupeTerms(ts []Term) []Term {
	var out []Term
	for _, t := range ts {
		dup := false
		for _, u := range out {
			if termsEqual(t, u) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}

func termsEqual(a, b Term) bool {
	if !a.Include.Equal(b.Include) || len(a.Exclude) != len(b.Exclude) {
		return false
	}
	for i := range a.Exclude {
		if !termsEqual(a.Exclude[i], b.Exclude[i]) {
			return false
		}
	}
	return true
}

// termBDD evaluates a (possibly nested) term symbolically.
func termBDD(o SetOps, t Term) bdd.Node {
	n := o.F.And(o.RangeBDD(t.Include), o.Universe)
	for _, x := range t.Exclude {
		n = o.F.Diff(n, termBDD(o, x))
	}
	return n
}

// Simplify removes nested differences in a single pass, as in the paper:
// R − (A − B) becomes (R − A) ∪ B. The identity holds because GetMatch
// only nests along DAG containment chains (B ⊆ A ⊆ R).
func Simplify(terms []Term) []FlatTerm {
	var out []FlatTerm
	var walk func(t Term)
	walk = func(t Term) {
		flat := FlatTerm{Include: t.Include}
		for _, x := range t.Exclude {
			flat.Exclude = append(flat.Exclude, x.Include)
			for _, nested := range x.Exclude {
				walk(nested)
			}
		}
		sort.Slice(flat.Exclude, func(i, j int) bool {
			return flat.Exclude[i].Compare(flat.Exclude[j]) < 0
		})
		out = append(out, flat)
	}
	for _, t := range terms {
		walk(t)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Include.Compare(out[j].Include) < 0
	})
	return out
}

// String renders a flat term as "R − X₁ − X₂".
func (t FlatTerm) String() string {
	s := t.Include.String()
	for _, x := range t.Exclude {
		s += " − " + x.String()
	}
	return s
}

// Dot renders the DAG in Graphviz dot format, for visual inspection of
// Figure 3-style structures.
func (d *DAG) Dot() string {
	var b strings.Builder
	b.WriteString("digraph ddnf {\n  rankdir=TB;\n")
	id := map[*Node]int{}
	for i, n := range d.Nodes {
		id[n] = i
		fmt.Fprintf(&b, "  n%d [label=%q];\n", i, n.Range.String())
	}
	for _, n := range d.Nodes {
		for _, c := range n.Children {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", id[n], id[c])
		}
	}
	b.WriteString("}\n")
	return b.String()
}

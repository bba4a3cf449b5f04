package symbolic

import (
	"slices"

	"repro/internal/ir"
	"repro/internal/netaddr"
)

// Guard signatures: a constant-time disjointness filter for the clause
// products at the heart of SemanticDiff. Diffing two path sets is a
// product of BDD Ands, and on real policies almost all of those
// intersections are empty — each path is pinned under a handful of
// prefixes, and unrelated prefixes produce disjoint guards. A Sig is a
// conservative superset, computed from the IR alone (no BDD work), of
// the values two small windows of address bits can take inside a guard,
// packed as one word:
//
//	hi 32 bits: { windowA(x) | x ∈ Guard }    (5-bit window A)
//	lo 32 bits: { windowB(x) | x ∈ Guard }    (5-bit window B)
//
// Two guards can only intersect when BOTH windows may agree, so
// disjointness in either half proves And(Guard(p), Guard(q)) == False
// and the product step can skip the pair without building anything.
// The filter is exact — it only ever skips provably-empty
// intersections — which keeps reports byte-identical with and without
// it.
//
// Route guards place both windows into the advertised prefix's address
// bits (two offsets chosen to see independent bit ranges); packet
// guards place window A in the source address and window B in the
// destination. Offsets are chosen per vocabulary by scoring every
// placement on expected collisions and keeping the most discriminating.

// Sig is a packed guard signature. Bit v set in a half means "that
// window may take value v inside the guard". The zero Sig means "no
// signature computed" and never prunes — a freshly enumerated path
// always has at least one reachable window value per half, so a
// genuine signature has both halves nonzero.
type Sig uint64

// SigFull is the signature carrying no information: every window value
// allowed in both halves.
const SigFull Sig = ^Sig(0)

// sigWindowWidth is the per-half window width: 5 bits = 32 buckets.
const sigWindowWidth = 5

// PackSig assembles a signature from its two window halves.
func PackSig(a, b uint32) Sig { return Sig(a)<<32 | Sig(b) }

// Overlap reports whether the two signatures may intersect: the guards
// are provably disjoint when either window half is. A zero signature
// (not computed) always overlaps.
func (s Sig) Overlap(t Sig) bool {
	if s == 0 || t == 0 {
		return true
	}
	m := s & t
	return m>>32 != 0 && m&0xffffffff != 0
}

// sigEntry is one prefix constraint gathered from the IR: the first
// fixedLen address bits equal the corresponding bits of addr.
type sigEntry struct {
	addr     uint32
	fixedLen int
}

// entryRun returns the bucket interval [lo, hi] of one prefix entry for
// the 5-bit window at MSB offset w: the window values compatible with
// "first fixedLen bits == addr". The interval is always contiguous —
// the entry fixes a (possibly empty) top part of the window and leaves
// the rest free, and addr is canonical (bits beyond fixedLen zero).
func entryRun(w int, e sigEntry) (lo, hi uint32) {
	if e.fixedLen <= w {
		return 0, 31
	}
	base := (e.addr >> uint(32-w-sigWindowWidth)) & 31
	if e.fixedLen >= w+sigWindowWidth {
		return base, base
	}
	free := uint(w + sigWindowWidth - e.fixedLen)
	return base, base + 1<<free - 1
}

// entrySigMask returns the window mask of one prefix entry at offset w.
func entrySigMask(w int, e sigEntry) uint32 {
	lo, hi := entryRun(w, e)
	return windowRunMask(lo, hi)
}

// overlapPairs counts the pairs of bucket intervals [lo_i, hi_i] that
// intersect, in O(N + 32). Two intervals are disjoint exactly when one
// ends before the other starts — the two orderings are mutually
// exclusive — so overlapping pairs = C(N,2) − Σ_i #{j : hi_j < lo_i},
// and the inner count is a prefix sum over a 32-bucket histogram of
// interval ends.
func overlapPairs(los, his []uint32) int64 {
	var endsBelow [33]int64
	for _, h := range his {
		endsBelow[h+1]++
	}
	for v := 1; v <= 32; v++ {
		endsBelow[v] += endsBelow[v-1]
	}
	n := int64(len(los))
	pairs := n * (n - 1) / 2
	for _, l := range los {
		pairs -= endsBelow[l]
	}
	return pairs
}

// windowScore rates one window placement by the exact number of entry
// pairs whose masks intersect there — the pairs a product step could
// NOT skip. Minimizing collisions (not mask size) matters: a deep
// shared prefix makes every entry a single identical bucket, which is
// maximally small and maximally useless, while a shallow window full of
// unconstrained entries overlaps everything. Counting each pair once
// keeps those two failure modes comparable. Entry masks are contiguous
// runs, so pair-overlap reduces to interval intersection.
func windowScore(w int, entries []sigEntry, los, his []uint32) int64 {
	for k, e := range entries {
		los[k], his[k] = entryRun(w, e)
	}
	return overlapPairs(los, his)
}

// chooseSigWindows picks the MSB offsets of the two route signature
// windows: the best-scoring placement, and the best placement whose
// bits don't overlap the first (overlapping windows would see
// correlated values and prune nothing the first didn't). No entries
// (or ties) keep the shallowest placements.
func chooseSigWindows(entries []sigEntry) (wa, wb int) {
	if len(entries) == 0 {
		return 0, sigWindowWidth
	}
	const maxW = 32 - sigWindowWidth
	los := make([]uint32, len(entries))
	his := make([]uint32, len(entries))
	bestA, scoreA := 0, int64(1)<<62
	for w := 0; w <= maxW; w++ {
		if s := windowScore(w, entries, los, his); s < scoreA {
			bestA, scoreA = w, s
		}
	}
	bestB, scoreB := -1, int64(1)<<62
	for w := 0; w <= maxW; w++ {
		if w > bestA-sigWindowWidth && w < bestA+sigWindowWidth {
			continue
		}
		if s := windowScore(w, entries, los, his); s < scoreB {
			bestB, scoreB = w, s
		}
	}
	if bestB < 0 {
		bestB = bestA // no disjoint placement; a duplicate half is harmless
	}
	return bestA, bestB
}

// gatherSigEntries collects every prefix constraint the configurations
// can apply to the advertised prefix: prefix-list permit entries and
// inline prefix ranges. Deny entries never define a match set, so they
// don't inform window placement.
func gatherSigEntries(cfgs ...*ir.Config) []sigEntry {
	var out []sigEntry
	add := func(r netaddr.PrefixRange) {
		if r.IsEmpty() || r.Prefix.Len == 0 {
			return
		}
		out = append(out, sigEntry{addr: uint32(r.Prefix.Addr), fixedLen: int(r.Prefix.Len)})
	}
	for _, cfg := range cfgs {
		if cfg == nil {
			continue
		}
		for _, pl := range cfg.PrefixLists {
			for _, e := range pl.Entries {
				if e.Action == ir.Permit {
					add(e.Range)
				}
			}
		}
		for _, rm := range cfg.RouteMaps {
			for _, cl := range rm.Clauses {
				for _, m := range cl.Matches {
					if m, ok := m.(ir.MatchPrefixRanges); ok {
						for _, r := range m.Ranges {
							add(r)
						}
					}
				}
			}
		}
	}
	return out
}

// rangeSig returns the packed signature of one prefix range under the
// encoding's windows.
func (e *RouteEncoding) rangeSig(r netaddr.PrefixRange) Sig {
	en := sigEntry{addr: uint32(r.Prefix.Addr), fixedLen: int(r.Prefix.Len)}
	return PackSig(entrySigMask(e.sigWinA, en), entrySigMask(e.sigWinB, en))
}

// matchSigMask returns the signature mask of one match condition: a
// superset of the window values its match set allows. Matches that
// don't constrain the advertised prefix return SigFull.
func (e *RouteEncoding) matchSigMask(cfg *ir.Config, m ir.Match) Sig {
	switch m := m.(type) {
	case ir.MatchPrefixList:
		// The match set is at most the union of the found lists' permit
		// entries (first-match deny entries only shrink it).
		var s Sig
		for _, name := range m.Lists {
			if pl := cfg.PrefixLists[name]; pl != nil {
				for _, en := range pl.Entries {
					if en.Action == ir.Permit && !en.Range.IsEmpty() {
						s |= e.rangeSig(en.Range)
					}
				}
			}
		}
		return s
	case ir.MatchPrefixListFilter:
		var s Sig
		if pl := cfg.PrefixLists[m.List]; pl != nil {
			for _, en := range pl.Entries {
				if en.Action == ir.Permit {
					// The modifier widens length bounds only; the
					// address-bit constraint is the entry's own.
					if rg := ir.ApplyRangeModifier(en.Range, m.Modifier); !rg.IsEmpty() {
						s |= e.rangeSig(rg)
					}
				}
			}
		}
		return s
	case ir.MatchPrefixRanges:
		var s Sig
		for _, r := range m.Ranges {
			if !r.IsEmpty() {
				s |= e.rangeSig(r)
			}
		}
		return s
	}
	return SigFull
}

// clauseSig returns the signature mask of a clause's match conjunction,
// memoized by clause identity (clauses are immutable after parsing and
// belong to exactly one configuration).
func (e *RouteEncoding) clauseSig(cfg *ir.Config, cl *ir.RouteMapClause) Sig {
	if s, ok := e.clauseSigs[cl]; ok {
		return s
	}
	s := SigFull
	for _, m := range cl.Matches {
		s &= e.matchSigMask(cfg, m)
	}
	e.clauseSigs[cl] = s
	return s
}

// SigWindow reports the MSB offset of the encoding's primary signature
// window into the prefix address bits — the axis the intra-pair
// partitioner stripes on.
func (e *RouteEncoding) SigWindow() int { return e.sigWinA }

// ACL signatures: same mechanics over packet space, with window A in
// the source address and window B in the destination.

// ACLSigTable computes line signatures for one ACL diff: the windows
// are chosen from both ACLs' lines together, so both sides' signatures
// are comparable. The windows' overlap scores double as the pair's
// packet-order signal (see NewPacketEncodingFor): the field whose lines
// overlap least is the one to branch on first.
type ACLSigTable struct {
	srcW, dstW         int
	srcScore, dstScore int64
	acls               []*ir.ACL
	memo               map[*ir.ACLLine]Sig
}

// wildcardSigMask returns the 32-bucket mask of one wildcard matcher
// over the 5-bit window at MSB offset w: every window value compatible
// with the matcher's cared bits. Wildcard care bits need not be
// contiguous, so this enumerates the 32 values.
func wildcardSigMask(w int, wc netaddr.Wildcard) uint32 {
	shift := uint(32 - w - sigWindowWidth)
	careWin := (^uint32(wc.Mask) >> shift) & 31
	if careWin == 0 {
		return ^uint32(0)
	}
	baseVal := (uint32(wc.Addr) >> shift) & 31 & careWin
	var m uint32
	for v := uint32(0); v < 32; v++ {
		if v&careWin == baseVal {
			m |= 1 << v
		}
	}
	return m
}

// fieldSigMask returns the mask of one address field: the union over
// its matchers (a packet must match at least one), full when the field
// is unconstrained.
func fieldSigMask(w int, wcs []netaddr.Wildcard) uint32 {
	if len(wcs) == 0 {
		return ^uint32(0)
	}
	var m uint32
	for _, wc := range wcs {
		m |= wildcardSigMask(w, wc)
	}
	return m
}

// fieldHull returns the interval hull [lowest, highest] of
// fieldSigMask(w, wcs) without enumerating the mask: a wildcard's
// compatible window values run from its cared bits (free bits 0) to its
// cared bits with every free bit set, and a union's hull spans its
// members' hulls.
func fieldHull(w int, wcs []netaddr.Wildcard) (lo, hi uint32) {
	if len(wcs) == 0 {
		return 0, 31
	}
	shift := uint(32 - w - sigWindowWidth)
	lo = 31
	for _, wc := range wcs {
		careWin := (^uint32(wc.Mask) >> shift) & 31
		base := (uint32(wc.Addr) >> shift) & careWin
		lo = min(lo, base)
		hi = max(hi, base|^careWin&31)
	}
	return lo, hi
}

// chooseACLWindow scores every placement of one field's window across
// all lines of the given ACLs by the number of line pairs whose masks
// may intersect there (as in windowScore) and keeps the most
// discriminating, returning its offset and score. Wildcard masks may be
// non-contiguous, so each mask is widened to its interval hull [lowest
// set bucket, highest set bucket]; hull overlap over-approximates mask
// overlap uniformly, which is all a relative score needs.
func chooseACLWindow(acls []*ir.ACL, field func(*ir.ACLLine) []netaddr.Wildcard) (int, int64) {
	var fields [][]netaddr.Wildcard
	for _, acl := range acls {
		for _, l := range acl.Lines {
			fields = append(fields, field(l))
		}
	}
	los := make([]uint32, len(fields))
	his := make([]uint32, len(fields))
	bestW, bestScore := 0, int64(1)<<62
	for w := 0; w <= 32-sigWindowWidth; w++ {
		for k, wcs := range fields {
			los[k], his[k] = fieldHull(w, wcs)
		}
		if score := overlapPairs(los, his); score < bestScore {
			bestW, bestScore = w, score
		}
	}
	return bestW, bestScore
}

// NewACLSigTable chooses signature windows covering all given ACLs.
func NewACLSigTable(acls ...*ir.ACL) *ACLSigTable {
	t := &ACLSigTable{acls: acls, memo: map[*ir.ACLLine]Sig{}}
	t.srcW, t.srcScore = chooseACLWindow(acls, func(l *ir.ACLLine) []netaddr.Wildcard { return l.Src })
	t.dstW, t.dstScore = chooseACLWindow(acls, func(l *ir.ACLLine) []netaddr.Wildcard { return l.Dst })
	return t
}

// leadField names the address field whose lines overlap least at its
// best window — the field a pair-ordered encoding branches on first.
// Ties keep the layout's own order, source first.
func (t *ACLSigTable) leadField() string {
	if t.dstScore < t.srcScore {
		return "dst"
	}
	return "src"
}

// builtFor reports whether the table was built over exactly the given
// ACLs (as a set: the order of a pair does not change its windows).
func (t *ACLSigTable) builtFor(acls ...*ir.ACL) bool {
	for _, a := range acls {
		if !slices.Contains(t.acls, a) {
			return false
		}
	}
	for _, a := range t.acls {
		if !slices.Contains(acls, a) {
			return false
		}
	}
	return true
}

// LineSig returns the packed signature of one ACL line's match set; the
// nil line (the implicit deny) is unconstrained. An ACL path's guard is
// a subset of its line's match set, so the line signature is the path
// signature.
func (t *ACLSigTable) LineSig(l *ir.ACLLine) Sig {
	if l == nil {
		return SigFull
	}
	if s, ok := t.memo[l]; ok {
		return s
	}
	s := PackSig(fieldSigMask(t.srcW, l.Src), fieldSigMask(t.dstW, l.Dst))
	t.memo[l] = s
	return s
}

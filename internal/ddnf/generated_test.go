package ddnf_test

import (
	"testing"

	"repro/internal/aclgen"
	"repro/internal/cisco"
	"repro/internal/ddnf"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/netaddr"
	"repro/internal/policygen"
	"repro/internal/symbolic"
)

// TestBuildMatchesReferenceGenerated checks Build against the pairwise
// reference on the range vocabularies of generated workloads: a
// 250-clause policygen route-map pair (both vendors' prefix lists and
// route-filters) and the destination /32 ranges of an aclgen ACL pair.
func TestBuildMatchesReferenceGenerated(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		p := policygen.Generate(policygen.Params{Seed: seed, Clauses: 250, Differences: 5})
		c, err := cisco.Parse("c.cfg", p.CiscoText)
		if err != nil {
			t.Fatal(err)
		}
		j, err := juniper.Parse("j.cfg", p.JuniperText)
		if err != nil {
			t.Fatal(err)
		}
		ranges := append(headerloc.ConfigPrefixRanges(c), headerloc.ConfigPrefixRanges(j)...)
		got := ddnf.Build(ranges)
		if diff := ddnf.DAGDiff(got, ddnf.BuildReference(ranges)); diff != "" {
			t.Fatalf("policygen seed %d: %s", seed, diff)
		}
		t.Logf("policygen seed %d: %d ranges, %d nodes", seed, len(ranges), len(got.Nodes))
		if len(got.Nodes) <= len(ranges)/4 {
			t.Errorf("policygen seed %d: only %d nodes from %d ranges", seed, len(got.Nodes), len(ranges))
		}
	}
	a := aclgen.Generate(aclgen.Params{Seed: 1, Rules: 500, Differences: 10})
	var ranges []netaddr.PrefixRange
	for _, acl := range []*ir.ACL{a.Cisco, a.Juniper} {
		for _, line := range acl.Lines {
			for _, w := range line.Dst {
				if p, ok := w.AsPrefix(); ok {
					ranges = append(ranges, netaddr.PrefixRange{Prefix: p, Lo: 32, Hi: 32})
				}
			}
		}
	}
	got := ddnf.Build(ranges)
	t.Logf("aclgen: %d ranges, %d nodes", len(ranges), len(got.Nodes))
	if diff := ddnf.DAGDiff(got, ddnf.BuildReference(ranges)); diff != "" {
		t.Fatalf("aclgen destinations: %s", diff)
	}
}

// TestGetMatchVisitsOnlyMeetingNodes: on the rm1k vocabulary (a
// 1000-clause policygen pair, 5725 DAG nodes), a query for a single
// prefix — a /32 inside a vocabulary prefix, or the prefix itself —
// builds remainders only along the query's trie path (plus the ¬S walk
// under an included node): O(trie depth), not every node in the DAG.
func TestGetMatchVisitsOnlyMeetingNodes(t *testing.T) {
	p := policygen.Generate(policygen.Params{Seed: 1, Clauses: 1000})
	c, err := cisco.Parse("c.cfg", p.CiscoText)
	if err != nil {
		t.Fatal(err)
	}
	j, err := juniper.Parse("j.cfg", p.JuniperText)
	if err != nil {
		t.Fatal(err)
	}
	ranges := append(headerloc.ConfigPrefixRanges(c), headerloc.ConfigPrefixRanges(j)...)
	d := ddnf.Build(ranges)
	enc := symbolic.NewRouteEncoding(c, j)
	o := ddnf.SetOps{F: enc.F, RangeBDD: enc.PrefixRangeBDD, Universe: enc.WellFormed}
	const bound = 2 * 33 // twice the depth of the prefix trie
	most := 0
	for i := 0; i < len(ranges); i += 40 {
		r := ranges[i]
		for _, q := range []netaddr.Prefix{netaddr.NewPrefix(r.Prefix.Addr+1, 32), r.Prefix} {
			m := d.NewMatcher(o)
			m.GetMatch(enc.PrefixBDD(q))
			built := m.RemaindersBuilt()
			if built > bound {
				t.Errorf("query %v built %d remainders of %d nodes, want ≤ %d", q, built, len(d.Nodes), bound)
			}
			most = max(most, built)
		}
	}
	t.Logf("%d DAG nodes; at most %d remainders built per single-prefix query", len(d.Nodes), most)
}

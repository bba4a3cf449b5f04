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

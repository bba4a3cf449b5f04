package semdiff

import (
	"testing"

	"repro/internal/aclgen"
	"repro/internal/bdd"
	"repro/internal/cisco"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/netaddr"
	"repro/internal/symbolic"
)

const figure1a = `ip prefix-list NETS permit 10.9.0.0/16 le 32
ip prefix-list NETS permit 10.100.0.0/16 le 32
!
ip community-list standard COMM permit 10:10
ip community-list standard COMM permit 10:11
!
route-map POL deny 10
 match ip address NETS
route-map POL deny 20
 match community COMM
route-map POL permit 30
 set local-preference 30
`

const figure1b = `policy-options {
    prefix-list NETS {
        10.9.0.0/16;
        10.100.0.0/16;
    }
    community COMM members [ 10:10 10:11 ];
    policy-statement POL {
        term rule1 {
            from prefix-list NETS;
            then reject;
        }
        term rule2 {
            from community COMM;
            then reject;
        }
        term rule3 {
            then {
                local-preference 30;
                accept;
            }
        }
    }
}
`

func parseFigure1(t *testing.T) (*ir.Config, *ir.Config) {
	t.Helper()
	c, err := cisco.Parse("cisco.cfg", figure1a)
	if err != nil {
		t.Fatal(err)
	}
	j, err := juniper.Parse("juniper.cfg", figure1b)
	if err != nil {
		t.Fatal(err)
	}
	return c, j
}

// TestFigure1TwoDifferences reproduces Table 2 of the paper: SemanticDiff
// finds exactly the two distinct configuration errors, localized to the
// responsible clauses.
func TestFigure1TwoDifferences(t *testing.T) {
	c, j := parseFigure1(t)
	enc := symbolic.NewRouteEncoding(c, j)
	diffs, err := DiffRouteMaps(enc, c, c.RouteMaps["POL"], j, j.RouteMaps["POL"])
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 2 {
		t.Fatalf("got %d differences, want 2 (Table 2)", len(diffs))
	}

	// Difference 1: Cisco clause 10 (deny via NETS) vs Juniper rule3
	// (accept with lp 30). The impacted space includes 10.9.1.0/24 but
	// not 10.9.0.0/16.
	d1 := diffs[0]
	if d1.Path1.Terminal == nil || d1.Path1.Terminal.Seq != 10 {
		t.Errorf("d1 cisco terminal = %+v", d1.Path1.Terminal)
	}
	if d1.Path2.Terminal == nil || d1.Path2.Terminal.Name != "rule3" {
		t.Errorf("d1 juniper terminal = %+v", d1.Path2.Terminal)
	}
	if d1.Path1.Accept || !d1.Path2.Accept {
		t.Error("d1 actions should be REJECT vs ACCEPT")
	}
	in24 := enc.F.And(d1.Inputs, enc.PrefixBDD(netaddr.MustParsePrefix("10.9.1.0/24")))
	if in24 == bdd.False {
		t.Error("d1 should impact 10.9.1.0/24")
	}
	in16 := enc.F.And(d1.Inputs, enc.PrefixBDD(netaddr.MustParsePrefix("10.9.0.0/16")))
	if in16 != bdd.False {
		t.Error("d1 should not impact the exact /16 (both reject it)")
	}

	// Difference 2: Cisco clause 20 (deny via COMM) vs Juniper rule3.
	d2 := diffs[1]
	if d2.Path1.Terminal == nil || d2.Path1.Terminal.Seq != 20 {
		t.Errorf("d2 cisco terminal = %+v", d2.Path1.Terminal)
	}
	if d2.Path2.Terminal == nil || d2.Path2.Terminal.Name != "rule3" {
		t.Errorf("d2 juniper terminal = %+v", d2.Path2.Terminal)
	}
	// A route with only community 10:10 outside NETS is impacted.
	r := ir.NewRoute(netaddr.MustParsePrefix("192.0.2.0/24"))
	r.Communities["10:10"] = true
	if enc.F.And(d2.Inputs, enc.RouteCube(r)) == bdd.False {
		t.Error("d2 should impact a route carrying only 10:10")
	}
	// A route with both communities is rejected by both routers.
	r2 := ir.NewRoute(netaddr.MustParsePrefix("192.0.2.0/24"))
	r2.Communities["10:10"] = true
	r2.Communities["10:11"] = true
	if enc.F.And(d2.Inputs, enc.RouteCube(r2)) != bdd.False {
		t.Error("d2 should not impact a route carrying both communities")
	}
	// Text localization: the quintuple carries the original text.
	if d1.Path1.Terminal.Span.Text() == "" || d1.Path2.Terminal.Span.Text() == "" {
		t.Error("difference should carry configuration text")
	}
}

func TestIdenticalRouteMapsNoDiffs(t *testing.T) {
	c1, _ := cisco.Parse("a.cfg", figure1a)
	c2, _ := cisco.Parse("b.cfg", figure1a)
	enc := symbolic.NewRouteEncoding(c1, c2)
	eq, err := EquivalentRouteMaps(enc, c1, c1.RouteMaps["POL"], c2, c2.RouteMaps["POL"])
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("identical route maps should be equivalent")
	}
}

// TestCrossVendorEquivalentRouteMaps checks that a *correctly* translated
// Juniper version of the Cisco policy yields no differences — the
// modular check does not raise spurious cross-vendor diffs.
func TestCrossVendorEquivalentRouteMaps(t *testing.T) {
	c, _ := cisco.Parse("cisco.cfg", figure1a)
	fixed := `policy-options {
    community C10 members 10:10;
    community C11 members 10:11;
    policy-statement POL {
        term rule1 {
            from {
                route-filter 10.9.0.0/16 orlonger;
                route-filter 10.100.0.0/16 orlonger;
            }
            then reject;
        }
        term rule2 {
            from community [ C10 C11 ];
            then reject;
        }
        term rule3 {
            then {
                local-preference 30;
                accept;
            }
        }
    }
}
`
	j, err := juniper.Parse("juniper.cfg", fixed)
	if err != nil {
		t.Fatal(err)
	}
	enc := symbolic.NewRouteEncoding(c, j)
	diffs, err := DiffRouteMaps(enc, c, c.RouteMaps["POL"], j, j.RouteMaps["POL"])
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		a := enc.F.AnySat(d.Inputs)
		t.Errorf("unexpected diff: example route %v, %v vs %v",
			enc.RouteFromAssignment(a), d.Path1.Accept, d.Path2.Accept)
	}
}

func TestTransformOnlyDifference(t *testing.T) {
	// Same accept/reject structure, different local-preference: the
	// Scenario-2 bug class (incorrect local preferences, §5.1).
	mk := func(lp int64) *ir.Config {
		cfg := ir.NewConfig("r", ir.VendorCisco)
		cfg.RouteMaps["P"] = &ir.RouteMap{
			Name: "P", DefaultAction: ir.Deny,
			Clauses: []*ir.RouteMapClause{
				{Action: ir.ClausePermit, Sets: []ir.SetAction{ir.SetLocalPref{Value: lp}}},
			},
		}
		return cfg
	}
	c1, c2 := mk(200), mk(300)
	enc := symbolic.NewRouteEncoding(c1, c2)
	diffs, err := DiffRouteMaps(enc, c1, c1.RouteMaps["P"], c2, c2.RouteMaps["P"])
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1", len(diffs))
	}
	if diffs[0].Path1.Accept != true || diffs[0].Path2.Accept != true {
		t.Error("both sides accept; difference is the transform")
	}
	if diffs[0].Path1.Transform.Equal(diffs[0].Path2.Transform) {
		t.Error("transforms should differ")
	}
}

func TestCommunityNumberDifference(t *testing.T) {
	// Scenario-2 bug class: an incorrect community number in the
	// replacement config.
	mk := func(comm string) *ir.Config {
		cfg := ir.NewConfig("r", ir.VendorCisco)
		cfg.RouteMaps["P"] = &ir.RouteMap{
			Name: "P", DefaultAction: ir.Deny,
			Clauses: []*ir.RouteMapClause{
				{Action: ir.ClausePermit, Sets: []ir.SetAction{ir.SetCommunities{Communities: []string{comm}, Additive: true}}},
			},
		}
		return cfg
	}
	c1, c2 := mk("65000:100"), mk("65000:101")
	enc := symbolic.NewRouteEncoding(c1, c2)
	diffs, _ := DiffRouteMaps(enc, c1, c1.RouteMaps["P"], c2, c2.RouteMaps["P"])
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1", len(diffs))
	}
}

func TestEquivalentRegexCommunitiesNoFalsePositive(t *testing.T) {
	// Semantically equal community regexes spelled differently must not
	// be flagged.
	c1 := ir.NewConfig("r1", ir.VendorCisco)
	c1.CommunityLists["L"] = &ir.CommunityList{Name: "L", Entries: []ir.CommunityListEntry{
		{Action: ir.Permit, Conjuncts: []ir.CommunityMatcher{{Regex: "^10:(10|11)$"}}},
	}}
	c2 := ir.NewConfig("r2", ir.VendorCisco)
	c2.CommunityLists["L"] = &ir.CommunityList{Name: "L", Entries: []ir.CommunityListEntry{
		{Action: ir.Permit, Conjuncts: []ir.CommunityMatcher{{Regex: "^10:1[01]$"}}},
	}}
	for _, cfg := range []*ir.Config{c1, c2} {
		cfg.RouteMaps["P"] = &ir.RouteMap{Name: "P", DefaultAction: ir.Permit,
			Clauses: []*ir.RouteMapClause{
				{Action: ir.ClauseDeny, Matches: []ir.Match{ir.MatchCommunity{Lists: []string{"L"}}}},
			}}
	}
	enc := symbolic.NewRouteEncoding(c1, c2)
	diffs, _ := DiffRouteMaps(enc, c1, c1.RouteMaps["P"], c2, c2.RouteMaps["P"])
	if len(diffs) != 0 {
		t.Errorf("equivalent regexes flagged: %d diffs", len(diffs))
	}
}

func TestDifferentRegexCommunitiesCaught(t *testing.T) {
	// The university border-router bug class: regex differences in
	// community matching (Export 3/4, §5.2).
	c1 := ir.NewConfig("r1", ir.VendorCisco)
	c1.CommunityLists["L"] = &ir.CommunityList{Name: "L", Entries: []ir.CommunityListEntry{
		{Action: ir.Permit, Conjuncts: []ir.CommunityMatcher{{Regex: "^10:1[01]$"}}},
	}}
	c2 := ir.NewConfig("r2", ir.VendorCisco)
	c2.CommunityLists["L"] = &ir.CommunityList{Name: "L", Entries: []ir.CommunityListEntry{
		{Action: ir.Permit, Conjuncts: []ir.CommunityMatcher{{Regex: "^10:1[012]$"}}},
	}}
	for _, cfg := range []*ir.Config{c1, c2} {
		cfg.RouteMaps["P"] = &ir.RouteMap{Name: "P", DefaultAction: ir.Permit,
			Clauses: []*ir.RouteMapClause{
				{Action: ir.ClauseDeny, Matches: []ir.Match{ir.MatchCommunity{Lists: []string{"L"}}}},
			}}
	}
	enc := symbolic.NewRouteEncoding(c1, c2)
	diffs, _ := DiffRouteMaps(enc, c1, c1.RouteMaps["P"], c2, c2.RouteMaps["P"])
	if len(diffs) == 0 {
		t.Error("differing regexes should be flagged")
	}
}

func TestFallthroughDefaultDifference(t *testing.T) {
	// University finding: different fall-through behavior (accept vs
	// deny) for advertisements matching no clause.
	c := ir.NewConfig("r1", ir.VendorCisco)
	c.RouteMaps["P"] = &ir.RouteMap{Name: "P", DefaultAction: ir.Deny,
		Clauses: []*ir.RouteMapClause{
			{Action: ir.ClausePermit, Matches: []ir.Match{ir.MatchPrefixRanges{
				Ranges: []netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")}}}},
		}}
	j := ir.NewConfig("r2", ir.VendorJuniper)
	j.RouteMaps["P"] = &ir.RouteMap{Name: "P", DefaultAction: ir.Permit,
		Clauses: []*ir.RouteMapClause{
			{Action: ir.ClausePermit, Matches: []ir.Match{ir.MatchPrefixRanges{
				Ranges: []netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")}}}},
		}}
	enc := symbolic.NewRouteEncoding(c, j)
	diffs, _ := DiffRouteMaps(enc, c, c.RouteMaps["P"], j, j.RouteMaps["P"])
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1 (default action)", len(diffs))
	}
	d := diffs[0]
	if d.Path1.Terminal != nil || d.Path2.Terminal != nil {
		t.Error("difference should be between the two default actions")
	}
	// Impacted space excludes 10/8.
	if enc.F.And(d.Inputs, enc.PrefixBDD(netaddr.MustParsePrefix("10.1.0.0/16"))) != bdd.False {
		t.Error("10.1/16 is matched by both and should not be impacted")
	}
}

func buildACL(name string, lines ...*ir.ACLLine) *ir.ACL {
	return &ir.ACL{Name: name, Lines: lines}
}

func TestDiffACLsFindsAllInjected(t *testing.T) {
	base := func() []*ir.ACLLine {
		var out []*ir.ACLLine
		for i := 0; i < 20; i++ {
			l := ir.NewACLLine(ir.Permit)
			l.Protocol = ir.ProtoNumber(ir.ProtoNumTCP)
			l.Dst = []netaddr.Wildcard{netaddr.WildcardFromPrefix(
				netaddr.NewPrefix(netaddr.Addr(uint32(10)<<24|uint32(i)<<16), 16))}
			l.DstPorts = []netaddr.PortRange{{Lo: 80, Hi: 80}}
			out = append(out, l)
		}
		return out
	}
	lines1, lines2 := base(), base()
	// Injected differences: flip an action, change a port, drop a rule.
	lines2[3] = ir.NewACLLine(ir.Deny)
	*lines2[3] = *lines1[3]
	lines2[3].Action = ir.Deny
	changed := ir.NewACLLine(ir.Permit)
	*changed = *lines1[7]
	changed.DstPorts = []netaddr.PortRange{{Lo: 443, Hi: 443}}
	lines2[7] = changed
	lines2 = append(lines2[:15], lines2[16:]...)

	enc := symbolic.NewPacketEncoding()
	acl1, acl2 := buildACL("A", lines1...), buildACL("A", lines2...)
	diffs := DiffACLs(enc, acl1, acl2)
	if len(diffs) == 0 {
		t.Fatal("expected differences")
	}
	// Verify every reported difference is real and every injected
	// difference is covered by probing concrete packets.
	probe := func(dst string, port uint16) (bool, bool) {
		pkt := ir.Packet{Src: netaddr.MustParseAddr("1.1.1.1"), Dst: netaddr.MustParseAddr(dst), Protocol: ir.ProtoNumTCP, DstPort: port}
		a1, _ := acl1.Evaluate(pkt)
		a2, _ := acl2.Evaluate(pkt)
		cube := enc.PacketCube(pkt)
		var inDiff bool
		for _, d := range diffs {
			if enc.F.And(d.Inputs, cube) != bdd.False {
				inDiff = true
			}
		}
		return a1 != a2, inDiff
	}
	cases := []struct {
		dst  string
		port uint16
	}{
		{"10.3.0.1", 80},  // flipped action
		{"10.7.0.1", 80},  // port changed: 80 now denied on r2
		{"10.7.0.1", 443}, // port changed: 443 now permitted on r2
		{"10.15.0.1", 80}, // dropped rule
		{"10.4.0.1", 80},  // unchanged: no diff
		{"10.3.0.1", 22},  // not matched by either: no diff
	}
	for _, c := range cases {
		concrete, symbolic := probe(c.dst, c.port)
		if concrete != symbolic {
			t.Errorf("probe %s:%d concrete-diff=%v symbolic-diff=%v", c.dst, c.port, concrete, symbolic)
		}
	}
	// Pruned and naive must agree on the differing space.
	naive := DiffACLsNaive(enc, acl1, acl2)
	union := func(ds []ACLDiff) bdd.Node {
		u := bdd.False
		for _, d := range ds {
			u = enc.F.Or(u, d.Inputs)
		}
		return u
	}
	if union(diffs) != union(naive) {
		t.Error("pruned and naive differ on the impacted packet space")
	}
}

func TestEquivalentACLsDifferentStructure(t *testing.T) {
	// Split rules vs one range rule: structurally different, semantically
	// equal — SemanticDiff must not flag them.
	l1 := ir.NewACLLine(ir.Permit)
	l1.Protocol = ir.ProtoNumber(ir.ProtoNumTCP)
	l1.DstPorts = []netaddr.PortRange{{Lo: 80, Hi: 81}}
	a1 := buildACL("X", l1)

	l2a := ir.NewACLLine(ir.Permit)
	l2a.Protocol = ir.ProtoNumber(ir.ProtoNumTCP)
	l2a.DstPorts = []netaddr.PortRange{{Lo: 80, Hi: 80}}
	l2b := ir.NewACLLine(ir.Permit)
	l2b.Protocol = ir.ProtoNumber(ir.ProtoNumTCP)
	l2b.DstPorts = []netaddr.PortRange{{Lo: 81, Hi: 81}}
	a2 := buildACL("X", l2a, l2b)

	enc := symbolic.NewPacketEncoding()
	if !EquivalentACLs(enc, a1, a2) {
		t.Error("structurally different but equal ACLs flagged")
	}
	if len(DiffACLs(enc, a1, a2)) != 0 {
		t.Error("DiffACLs should report nothing")
	}
}

func TestACLImplicitDenyDifference(t *testing.T) {
	// One ACL ends with explicit permit-any; the other falls to implicit
	// deny.
	permitAny := ir.NewACLLine(ir.Permit)
	a1 := buildACL("X", permitAny)
	a2 := buildACL("X")
	enc := symbolic.NewPacketEncoding()
	diffs := DiffACLs(enc, a1, a2)
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1", len(diffs))
	}
	if diffs[0].Path2.Line != nil {
		t.Error("second path should be the implicit deny (nil line)")
	}
	if diffs[0].Inputs != bdd.True {
		t.Error("every packet differs")
	}
}

// TestPacketOrderSizeBound is a machine-independent bound on the ACL
// diff's BDD work: at 3000 rules the arena of a pair-ordered encoding
// stays within 200 nodes per rule, both on the aclgen pair (each rule
// guards its own destination: the destination leads) and on its mirror
// (each rule guards its own source: the source leads). A fixed
// source-first order builds ≈890 nodes per rule on the aclgen pair,
// because every first-match step copies a destination path under each
// source region.
func TestPacketOrderSizeBound(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-rule pairs")
	}
	const rules = 3000
	base := aclgen.Generate(aclgen.Params{Seed: 1, Rules: rules, Differences: 10})
	for _, c := range []struct {
		name, lead string
		pair       *aclgen.Pair
	}{{"dst-keyed", "dst", base}, {"src-keyed", "src", base.Mirror()}} {
		enc := symbolic.NewPacketEncoding(c.pair.Cisco, c.pair.Juniper)
		lead := "src"
		if enc.F.Order()[0] == enc.DstIPVars()[0] {
			lead = "dst"
		}
		if lead != c.lead {
			t.Errorf("%s: leading field %q, want %q", c.name, lead, c.lead)
		}
		if len(DiffACLs(enc, c.pair.Cisco, c.pair.Juniper)) == 0 {
			t.Fatalf("%s: no differences found", c.name)
		}
		size := enc.F.Size()
		t.Logf("%s: %d arena nodes, %.0f per rule", c.name, size, float64(size)/rules)
		if size > 200*rules {
			t.Errorf("%s: %d arena nodes, want ≤ %d (200 per rule)", c.name, size, 200*rules)
		}
	}
}

package core

import (
	"strings"
	"testing"

	"repro/internal/cisco"
	"repro/internal/ir"
	"repro/internal/juniper"
)

const ciscoRouter = `hostname cisco_router
!
ip prefix-list NETS permit 10.9.0.0/16 le 32
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
!
ip route 10.1.1.2 255.255.255.254 10.2.2.2
!
router bgp 65001
 neighbor 10.0.12.2 remote-as 65002
 neighbor 10.0.12.2 route-map POL out
 neighbor 10.0.12.2 send-community
`

const juniperRouter = `system { host-name juniper_router; }
policy-options {
    prefix-list NETS {
        10.9.0.0/16;
        10.100.0.0/16;
    }
    community COMM members [ 10:10 10:11 ];
    policy-statement POL {
        term rule1 { from prefix-list NETS; then reject; }
        term rule2 { from community COMM; then reject; }
        term rule3 { then { local-preference 30; accept; } }
    }
}
routing-options {
    autonomous-system 65001;
}
protocols {
    bgp {
        group peers {
            type external;
            peer-as 65002;
            neighbor 10.0.12.2 {
                export POL;
            }
        }
    }
}
`

func parsePair(t *testing.T) (*Report, error) {
	t.Helper()
	c, err := cisco.Parse("cisco.cfg", ciscoRouter)
	if err != nil {
		t.Fatal(err)
	}
	j, err := juniper.Parse("juniper.cfg", juniperRouter)
	if err != nil {
		t.Fatal(err)
	}
	return Diff(c, j, Options{})
}

func TestFullPairDiff(t *testing.T) {
	rep, err := parsePair(t)
	if err != nil {
		t.Fatal(err)
	}
	// Route maps: the two Figure 1 differences, via the matched
	// bgp-export pair on neighbor 10.0.12.2.
	if len(rep.RouteMapDiffs) != 2 {
		t.Fatalf("route map diffs = %d, want 2", len(rep.RouteMapDiffs))
	}
	for _, d := range rep.RouteMapDiffs {
		if d.Pair.Kind != "bgp-export" || d.Pair.Neighbor != "10.0.12.2" {
			t.Errorf("pair = %+v", d.Pair)
		}
		if d.Pair.Name1 != "POL" || d.Pair.Name2 != "POL" {
			t.Errorf("names = %s %s", d.Pair.Name1, d.Pair.Name2)
		}
	}
	d1 := rep.RouteMapDiffs[0]
	if d1.Action1 != "REJECT" {
		t.Errorf("action1 = %q", d1.Action1)
	}
	if !strings.Contains(d1.Action2, "SET LOCAL PREF 30") || !strings.Contains(d1.Action2, "ACCEPT") {
		t.Errorf("action2 = %q", d1.Action2)
	}
	if !strings.Contains(d1.Text1.Text(), "route-map POL deny 10") {
		t.Errorf("text1 = %q", d1.Text1.Text())
	}
	if !strings.Contains(d1.Text2.Text(), "rule3") {
		t.Errorf("text2 = %q", d1.Text2.Text())
	}

	// Structural: the Table 4 static route plus the send-community BGP
	// property (Cisco has it explicitly; both true → no diff for that
	// field, but check static).
	var staticCount int
	for _, d := range rep.Structural {
		if d.Component == "static-route" {
			staticCount++
		}
	}
	if staticCount != 1 {
		t.Errorf("static route diffs = %d, want 1", staticCount)
	}
}

func TestComponentFiltering(t *testing.T) {
	c, _ := cisco.Parse("cisco.cfg", ciscoRouter)
	j, _ := juniper.Parse("juniper.cfg", juniperRouter)
	rep, err := Diff(c, j, Options{Components: []Component{ComponentStatic}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RouteMapDiffs) != 0 {
		t.Error("route maps should be skipped")
	}
	if len(rep.Structural) == 0 {
		t.Error("static diff should be present")
	}
	for _, d := range rep.Structural {
		if d.Component != "static-route" {
			t.Errorf("unexpected component %s", d.Component)
		}
	}
}

func TestMatchPolicies(t *testing.T) {
	c, _ := cisco.Parse("cisco.cfg", ciscoRouter)
	j, _ := juniper.Parse("juniper.cfg", juniperRouter)
	pairs := MatchPolicies(c, j)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %+v", pairs)
	}
	if pairs[0].Kind != "bgp-import" || pairs[0].Name1 != "(none)" || pairs[0].Name2 != "(none)" {
		t.Errorf("import pair = %+v", pairs[0])
	}
	if pairs[1].Kind != "bgp-export" || pairs[1].Name1 != "POL" || pairs[1].Name2 != "POL" {
		t.Errorf("export pair = %+v", pairs[1])
	}
}

func TestNoBGPFallsBackToNameMatching(t *testing.T) {
	c1, _ := cisco.Parse("a.cfg", `route-map X permit 10
 set local-preference 100
`)
	c2, _ := cisco.Parse("b.cfg", `route-map X permit 10
 set local-preference 200
`)
	rep, err := Diff(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RouteMapDiffs) != 1 {
		t.Fatalf("diffs = %d, want 1", len(rep.RouteMapDiffs))
	}
	if rep.RouteMapDiffs[0].Pair.Kind != "route-map" {
		t.Errorf("pair = %+v", rep.RouteMapDiffs[0].Pair)
	}
}

func TestACLMatchingByName(t *testing.T) {
	c1, _ := cisco.Parse("a.cfg", `ip access-list extended EDGE
 permit tcp any any eq 80
ip access-list extended ONLY1
 permit ip any any
`)
	c2, _ := cisco.Parse("b.cfg", `ip access-list extended EDGE
 permit tcp any any eq 80
 permit tcp any any eq 443
`)
	rep, err := Diff(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ACLDiffs) != 1 {
		t.Fatalf("acl diffs = %d, want 1", len(rep.ACLDiffs))
	}
	if rep.ACLDiffs[0].Action1 != "REJECT" || rep.ACLDiffs[0].Action2 != "ACCEPT" {
		t.Errorf("actions = %q %q", rep.ACLDiffs[0].Action1, rep.ACLDiffs[0].Action2)
	}
	if len(rep.UnmatchedACLs1) != 1 || rep.UnmatchedACLs1[0] != "ONLY1" {
		t.Errorf("unmatched = %v", rep.UnmatchedACLs1)
	}
}

func TestIdenticalConfigsNoDifferences(t *testing.T) {
	c1, _ := cisco.Parse("a.cfg", ciscoRouter)
	c2, _ := cisco.Parse("b.cfg", ciscoRouter)
	rep, err := Diff(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalDifferences() != 0 {
		t.Errorf("identical configs should have no differences, got %d", rep.TotalDifferences())
	}
}

func TestCheckKindTable1(t *testing.T) {
	// Table 1 of the paper: which check applies to which component.
	want := map[Component]string{
		ComponentRouteMaps: "SemanticDiff",
		ComponentACLs:      "SemanticDiff",
		ComponentStatic:    "StructuralDiff",
		ComponentConnected: "StructuralDiff",
		ComponentBGP:       "StructuralDiff",
		ComponentOSPF:      "StructuralDiff",
		ComponentAdmin:     "StructuralDiff",
	}
	for c, k := range want {
		if CheckKind(c) != k {
			t.Errorf("CheckKind(%s) = %s, want %s", c, CheckKind(c), k)
		}
	}
	if len(AllComponents) != len(want) {
		t.Error("AllComponents out of sync")
	}
}

func TestChainHelpers(t *testing.T) {
	if chainName(nil) != "(none)" {
		t.Error("empty chain name")
	}
	if chainName([]string{"A", "B"}) != "A+B" {
		t.Error("chain join")
	}
	p := newPolicyPair("bgp-export", "10.0.0.1", []string{"A", "B"}, nil)
	if p.Name1 != "A+B" || p.Name2 != "(none)" {
		t.Errorf("display names = %q %q", p.Name1, p.Name2)
	}
	if len(p.Names1) != 2 || p.Names1[0] != "A" || p.Names1[1] != "B" || p.Names2 != nil {
		t.Errorf("name sequences = %v %v", p.Names1, p.Names2)
	}
	// Chains are identified by their sequences, never by re-splitting the
	// display string: a policy whose name contains '+' stays one policy.
	plus := newPolicyPair("bgp-import", "10.0.0.1", []string{"A+B"}, []string{"A", "B"})
	if chainKeyOf(plus.Names1, plus.Names2) == chainKeyOf(p.Names1, p.Names1) {
		t.Error("chain keys must distinguish [A+B] from [A, B]")
	}
	if len(plus.Names1) != 1 {
		t.Errorf("Names1 = %v, want the single policy %q", plus.Names1, "A+B")
	}
}

func TestResolveChainMissingPolicy(t *testing.T) {
	c, _ := cisco.Parse("a.cfg", "hostname a\n")
	rm := ResolveChain(c, []string{"NOPE"})
	if rm.DefaultAction.String() != "permit" {
		t.Error("missing policy should be permit-all")
	}
	rm = ResolveChain(c, nil)
	if rm.Name != "(none)" {
		t.Error("empty chain should be the identity policy")
	}
}

func TestExhaustiveCommunities(t *testing.T) {
	c, _ := cisco.Parse("cisco.cfg", ciscoRouter)
	j, _ := juniper.Parse("juniper.cfg", juniperRouter)
	rep, err := Diff(c, j, Options{ExhaustiveCommunities: true})
	if err != nil {
		t.Fatal(err)
	}
	var withTerms int
	for _, d := range rep.RouteMapDiffs {
		if len(d.Localization.CommunityTerms) > 0 {
			withTerms++
			if !d.Localization.CommunityComplete {
				t.Error("small example should localize completely")
			}
		}
	}
	if withTerms == 0 {
		t.Error("exhaustive community terms missing")
	}
	// Off by default.
	rep2, _ := Diff(c, j, Options{})
	for _, d := range rep2.RouteMapDiffs {
		if len(d.Localization.CommunityTerms) != 0 {
			t.Error("community terms should be opt-in")
		}
	}
}

// TestDegradationWithUnsupportedSyntax mirrors the paper's fifth
// Scenario-1 bug: one configuration uses constructs the tool does not
// fully support. Campion must still detect and localize the difference
// (with the unsupported lines surfaced, not silently dropped), even if
// the text is less precise.
func TestDegradationWithUnsupportedSyntax(t *testing.T) {
	c1, _ := cisco.Parse("a.cfg", `route-map X permit 10
 set local-preference 100
 set dampening 15 750 2000 60
`)
	c2, _ := cisco.Parse("b.cfg", `route-map X permit 10
 set local-preference 200
`)
	if len(c1.Unrecognized) != 1 {
		t.Fatalf("unsupported line should be collected: %v", c1.Unrecognized)
	}
	rep, err := Diff(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RouteMapDiffs) != 1 {
		t.Fatalf("diff still detected despite unsupported syntax: got %d", len(rep.RouteMapDiffs))
	}
	// The clause text still covers the whole clause, including the
	// unsupported line, so the operator sees everything relevant.
	if !strings.Contains(rep.RouteMapDiffs[0].Text1.Text(), "set dampening") {
		t.Errorf("text1 = %q", rep.RouteMapDiffs[0].Text1.Text())
	}
}

// TestDiffDeterminism: two runs over the same pair must produce
// identically ordered, identically rendered reports (atom universes,
// policy matching, and path enumeration are all order-stable).
func TestDiffDeterminism(t *testing.T) {
	run := func() string {
		c, _ := cisco.Parse("cisco.cfg", ciscoRouter)
		j, _ := juniper.Parse("juniper.cfg", juniperRouter)
		rep, err := Diff(c, j, Options{ExhaustiveCommunities: true})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, d := range rep.RouteMapDiffs {
			out += d.Pair.String() + "|" + d.Action1 + "|" + d.Action2
			for _, term := range d.Localization.Terms {
				out += "|" + term.String()
			}
			for _, ct := range d.Localization.CommunityTerms {
				out += "|" + ct.String()
			}
			out += "\n"
		}
		for _, d := range rep.Structural {
			out += d.String() + "\n"
		}
		return out
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestRedistributionPolicyPairing covers Table 1's "Route Maps (BGP,
// Route Redistribution)" row: redistribution policies are matched by
// source protocol and compared semantically.
func TestRedistributionPolicyPairing(t *testing.T) {
	c1, _ := cisco.Parse("a.cfg", `ip prefix-list STATICS permit 10.50.0.0/16 le 24
route-map STATIC-TO-BGP permit 10
 match ip address STATICS
 set metric 100
route-map STATIC-TO-BGP deny 20
router bgp 65001
 neighbor 10.0.12.2 remote-as 65002
 redistribute static route-map STATIC-TO-BGP
`)
	c2, _ := cisco.Parse("b.cfg", `ip prefix-list STATICS permit 10.50.0.0/16 le 24
route-map STATIC-TO-BGP permit 10
 match ip address STATICS
 set metric 200
route-map STATIC-TO-BGP deny 20
router bgp 65001
 neighbor 10.0.12.2 remote-as 65002
 redistribute static route-map STATIC-TO-BGP
`)
	pairs := MatchPolicies(c1, c2)
	var sawRedist bool
	for _, p := range pairs {
		if p.Kind == "redistribution-bgp" && p.Neighbor == "static" {
			sawRedist = true
		}
	}
	if !sawRedist {
		t.Fatalf("redistribution pair missing: %+v", pairs)
	}
	rep, err := Diff(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var redistDiffs int
	for _, d := range rep.RouteMapDiffs {
		if d.Pair.Kind == "redistribution-bgp" {
			redistDiffs++
			if !strings.Contains(d.Action1, "SET MED 100") || !strings.Contains(d.Action2, "SET MED 200") {
				t.Errorf("actions = %q / %q", d.Action1, d.Action2)
			}
		}
	}
	if redistDiffs != 1 {
		t.Errorf("redistribution diffs = %d, want 1", redistDiffs)
	}
}

// TestOSPFRedistributionCrossVendor pairs a Cisco "redistribute bgp"
// under OSPF with a Juniper OSPF export policy.
func TestOSPFRedistributionCrossVendor(t *testing.T) {
	c, _ := cisco.Parse("a.cfg", `interface Gi0/0
 ip address 10.0.12.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.255.255.255 area 0
 redistribute bgp route-map BGP-TO-OSPF
route-map BGP-TO-OSPF permit 10
 set metric 20
route-map BGP-TO-OSPF deny 20
`)
	j, _ := juniper.Parse("b.cfg", `interfaces {
    ge-0/0/0 { unit 0 { family inet { address 10.0.12.2/24; } } }
}
policy-options {
    policy-statement BGP-TO-OSPF {
        term all {
            then { metric 30; accept; }
        }
        term final { then reject; }
    }
}
protocols {
    ospf {
        export BGP-TO-OSPF;
        area 0 { interface ge-0/0/0.0 { metric 1; } }
    }
}
`)
	rep, err := Diff(c, j, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, d := range rep.RouteMapDiffs {
		if d.Pair.Kind == "redistribution-ospf" {
			found = true
		}
	}
	if !found {
		t.Errorf("ospf redistribution diff missing; pairs: %+v", MatchPolicies(c, j))
	}
}

// TestIdenticalACLsSkipEncoding: a pair whose ACLs list the same lines
// (renumbered here) reports nothing without building a packet encoding,
// while a single flipped action still goes through the full diff.
func TestIdenticalACLsSkipEncoding(t *testing.T) {
	c1, _ := genACLConfigs(t, 4, 40)
	copyACL := func() *ir.ACL {
		acl := &ir.ACL{Name: "BIG"}
		for _, l := range c1.ACLs["BIG"].Lines {
			cp := *l
			cp.Seq += 1000
			acl.Lines = append(acl.Lines, &cp)
		}
		return acl
	}
	same := &ir.Config{Hostname: "r2", ACLs: map[string]*ir.ACL{"BIG": copyACL()}}
	opts := Options{Workers: 1, Components: []Component{ComponentACLs}}
	rep, err := Diff(c1, same, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ACLDiffs) != 0 || rep.Stats[0].BDDNodes != 0 {
		t.Errorf("identical lines: %d diffs, %d BDD nodes; want none of either",
			len(rep.ACLDiffs), rep.Stats[0].BDDNodes)
	}
	flipped := copyACL()
	if flipped.Lines[0].Action == ir.Permit {
		flipped.Lines[0].Action = ir.Deny
	} else {
		flipped.Lines[0].Action = ir.Permit
	}
	rep, err = Diff(c1, &ir.Config{Hostname: "r2", ACLs: map[string]*ir.ACL{"BIG": flipped}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ACLDiffs) == 0 || rep.Stats[0].BDDNodes == 0 {
		t.Errorf("flipped first line: %d diffs, %d BDD nodes; want both non-zero",
			len(rep.ACLDiffs), rep.Stats[0].BDDNodes)
	}
}

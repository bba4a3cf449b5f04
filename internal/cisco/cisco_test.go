package cisco

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/netaddr"
)

// figure1a is the Cisco excerpt from Figure 1(a) of the paper.
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

func TestParseFigure1a(t *testing.T) {
	cfg, err := Parse("cisco.cfg", figure1a)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Unrecognized) != 0 {
		for _, u := range cfg.Unrecognized {
			t.Errorf("unrecognized: %s %q", u.Location(), u.Text())
		}
	}
	pl := cfg.PrefixLists["NETS"]
	if pl == nil || len(pl.Entries) != 2 {
		t.Fatalf("NETS = %+v", pl)
	}
	want := netaddr.MustParsePrefixRange("10.9.0.0/16 : 16-32")
	if !pl.Entries[0].Range.Equal(want) {
		t.Errorf("NETS[0] = %v, want %v", pl.Entries[0].Range, want)
	}
	if pl.Entries[0].Span.StartLine != 1 {
		t.Errorf("NETS[0] span = %+v", pl.Entries[0].Span)
	}

	cl := cfg.CommunityLists["COMM"]
	if cl == nil || len(cl.Entries) != 2 {
		t.Fatalf("COMM = %+v", cl)
	}
	for i, wantC := range []string{"10:10", "10:11"} {
		if len(cl.Entries[i].Conjuncts) != 1 || cl.Entries[i].Conjuncts[0].Literal != wantC {
			t.Errorf("COMM[%d] = %+v", i, cl.Entries[i])
		}
	}

	rm := cfg.RouteMaps["POL"]
	if rm == nil || len(rm.Clauses) != 3 {
		t.Fatalf("POL = %+v", rm)
	}
	if rm.DefaultAction != ir.Deny {
		t.Error("IOS route-map default must be deny")
	}
	if rm.Clauses[0].Action != ir.ClauseDeny || rm.Clauses[0].Seq != 10 {
		t.Errorf("clause 10 = %+v", rm.Clauses[0])
	}
	if m, ok := rm.Clauses[0].Matches[0].(ir.MatchPrefixList); !ok || m.Lists[0] != "NETS" {
		t.Errorf("clause 10 match = %+v", rm.Clauses[0].Matches)
	}
	if m, ok := rm.Clauses[1].Matches[0].(ir.MatchCommunity); !ok || m.Lists[0] != "COMM" {
		t.Errorf("clause 20 match = %+v", rm.Clauses[1].Matches)
	}
	if rm.Clauses[2].Action != ir.ClausePermit {
		t.Error("clause 30 should permit")
	}
	if s, ok := rm.Clauses[2].Sets[0].(ir.SetLocalPref); !ok || s.Value != 30 {
		t.Errorf("clause 30 set = %+v", rm.Clauses[2].Sets)
	}
	// Text localization: clause 10's span covers its two lines.
	sp := rm.Clauses[0].Span
	if sp.StartLine != 7 || sp.EndLine != 8 {
		t.Errorf("clause 10 span = %d-%d, want 7-8", sp.StartLine, sp.EndLine)
	}
	if !strings.Contains(sp.Text(), "match ip address NETS") {
		t.Errorf("clause 10 text = %q", sp.Text())
	}
}

func TestParsePrefixListGeLe(t *testing.T) {
	cfg, _ := Parse("t", `ip prefix-list A permit 10.0.0.0/8 ge 16 le 24
ip prefix-list B permit 10.0.0.0/8 ge 16
ip prefix-list C permit 10.0.0.0/8 le 16
ip prefix-list D permit 10.0.0.0/8
ip prefix-list E seq 15 deny 0.0.0.0/0 le 32
`)
	cases := []struct {
		name string
		want string
	}{
		{"A", "10.0.0.0/8 : 16-24"},
		{"B", "10.0.0.0/8 : 16-32"},
		{"C", "10.0.0.0/8 : 8-16"},
		{"D", "10.0.0.0/8 : 8-8"},
		{"E", "0.0.0.0/0 : 0-32"},
	}
	for _, c := range cases {
		pl := cfg.PrefixLists[c.name]
		if pl == nil {
			t.Fatalf("missing list %s", c.name)
		}
		if got := pl.Entries[0].Range.String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
	e := cfg.PrefixLists["E"].Entries[0]
	if e.Seq != 15 || e.Action != ir.Deny {
		t.Errorf("E entry = %+v", e)
	}
}

func TestParseStaticRoutes(t *testing.T) {
	cfg, _ := Parse("t", `ip route 10.1.1.2 255.255.255.254 10.2.2.2
ip route 0.0.0.0 0.0.0.0 192.0.2.1 250
ip route 10.5.0.0 255.255.0.0 Null0
ip route 10.6.0.0 255.255.0.0 10.2.2.9 tag 500
`)
	if len(cfg.StaticRoutes) != 4 {
		t.Fatalf("got %d static routes", len(cfg.StaticRoutes))
	}
	r := cfg.StaticRoutes[0]
	if r.Prefix.String() != "10.1.1.2/31" || !r.HasNextHop || r.NextHop.String() != "10.2.2.2" || r.AdminDistance != 1 {
		t.Errorf("route 0 = %+v", r)
	}
	if cfg.StaticRoutes[1].AdminDistance != 250 {
		t.Errorf("route 1 AD = %d", cfg.StaticRoutes[1].AdminDistance)
	}
	if cfg.StaticRoutes[2].Interface != "Null0" || cfg.StaticRoutes[2].HasNextHop {
		t.Errorf("route 2 = %+v", cfg.StaticRoutes[2])
	}
	if !cfg.StaticRoutes[3].HasTag || cfg.StaticRoutes[3].Tag != 500 {
		t.Errorf("route 3 = %+v", cfg.StaticRoutes[3])
	}
	if !strings.Contains(cfg.StaticRoutes[0].Span.Text(), "ip route 10.1.1.2") {
		t.Error("static route should carry its text")
	}
}

func TestParseInterfaces(t *testing.T) {
	cfg, _ := Parse("t", `hostname core1
interface GigabitEthernet0/0
 description uplink
 ip address 10.0.12.1 255.255.255.0
 ip access-group EDGE_IN in
 ip access-group EDGE_OUT out
 ip ospf cost 10
interface GigabitEthernet0/1
 shutdown
`)
	if cfg.Hostname != "core1" {
		t.Errorf("hostname = %q", cfg.Hostname)
	}
	if len(cfg.Interfaces) != 2 {
		t.Fatalf("interfaces = %d", len(cfg.Interfaces))
	}
	i0 := cfg.Interfaces[0]
	if i0.Name != "GigabitEthernet0/0" || i0.Description != "uplink" {
		t.Errorf("i0 = %+v", i0)
	}
	if !i0.HasAddress || i0.Subnet.String() != "10.0.12.0/24" || i0.Address.String() != "10.0.12.1" {
		t.Errorf("i0 address = %+v", i0)
	}
	if i0.ACLIn != "EDGE_IN" || i0.ACLOut != "EDGE_OUT" {
		t.Errorf("i0 acls = %q %q", i0.ACLIn, i0.ACLOut)
	}
	if i0.OSPFCost != 10 {
		t.Errorf("i0 cost = %d", i0.OSPFCost)
	}
	if !cfg.Interfaces[1].Shutdown {
		t.Error("i1 should be shutdown")
	}
}

func TestParseBGP(t *testing.T) {
	cfg, _ := Parse("t", `router bgp 65001
 bgp router-id 10.0.0.1
 neighbor 10.0.12.2 remote-as 65002
 neighbor 10.0.12.2 description to-peer
 neighbor 10.0.12.2 route-map IMPORT in
 neighbor 10.0.12.2 route-map EXPORT out
 neighbor 10.0.12.2 send-community
 neighbor 10.0.13.3 remote-as 65001
 neighbor 10.0.13.3 route-reflector-client
 neighbor 10.0.13.3 next-hop-self
 network 10.99.0.0 mask 255.255.0.0
 redistribute static route-map STATIC-TO-BGP
 distance bgp 20 200 200
`)
	b := cfg.BGP
	if b == nil || b.ASN != 65001 || b.RouterID.String() != "10.0.0.1" {
		t.Fatalf("bgp = %+v", b)
	}
	n := b.Neighbors["10.0.12.2"]
	if n == nil || n.RemoteAS != 65002 || n.Description != "to-peer" {
		t.Fatalf("neighbor = %+v", n)
	}
	if len(n.ImportPolicies) != 1 || n.ImportPolicies[0] != "IMPORT" {
		t.Errorf("import = %v", n.ImportPolicies)
	}
	if len(n.ExportPolicies) != 1 || n.ExportPolicies[0] != "EXPORT" {
		t.Errorf("export = %v", n.ExportPolicies)
	}
	if !n.SendCommunity {
		t.Error("send-community")
	}
	rr := b.Neighbors["10.0.13.3"]
	if rr == nil || !rr.RouteReflectorClient || !rr.NextHopSelf {
		t.Errorf("rr neighbor = %+v", rr)
	}
	if len(b.Networks) != 1 || b.Networks[0].String() != "10.99.0.0/16" {
		t.Errorf("networks = %v", b.Networks)
	}
	if len(b.Redistribute) != 1 || b.Redistribute[0].From != ir.ProtoStatic || b.Redistribute[0].RouteMap != "STATIC-TO-BGP" {
		t.Errorf("redistribute = %+v", b.Redistribute)
	}
	if cfg.AdminDistances[ir.ProtoBGP] != 20 || cfg.AdminDistances[ir.ProtoIBGP] != 200 {
		t.Errorf("distances = %v", cfg.AdminDistances)
	}
}

func TestParseOSPF(t *testing.T) {
	cfg, _ := Parse("t", `interface GigabitEthernet0/0
 ip address 10.0.12.1 255.255.255.0
 ip ospf cost 5
interface GigabitEthernet0/1
 ip address 192.0.2.1 255.255.255.0
!
router ospf 1
 router-id 10.0.0.1
 network 10.0.0.0 0.255.255.255 area 0
 passive-interface GigabitEthernet0/0
 redistribute connected
 distance 115
`)
	o := cfg.OSPF
	if o == nil || o.ProcessID != 1 || o.RouterID.String() != "10.0.0.1" {
		t.Fatalf("ospf = %+v", o)
	}
	oi := o.Interfaces["GigabitEthernet0/0"]
	if oi == nil {
		t.Fatal("Gi0/0 should be OSPF-enabled via the network statement")
	}
	if oi.Cost != 5 || oi.Area != 0 || !oi.Passive {
		t.Errorf("Gi0/0 ospf = %+v", oi)
	}
	if _, ok := o.Interfaces["GigabitEthernet0/1"]; ok {
		t.Error("192.0.2.1 is outside the network statement; Gi0/1 must not be enabled")
	}
	if cfg.AdminDistances[ir.ProtoOSPF] != 115 {
		t.Errorf("ospf distance = %d", cfg.AdminDistances[ir.ProtoOSPF])
	}
	if len(o.Redistribute) != 1 || o.Redistribute[0].From != ir.ProtoConnected {
		t.Errorf("redistribute = %+v", o.Redistribute)
	}
}

func TestParseExtendedACL(t *testing.T) {
	cfg, _ := Parse("t", `ip access-list extended EDGE
 permit tcp any host 10.0.0.5 eq 80 443
 deny icmp 192.0.2.0 0.0.0.255 any echo
 10 permit udp any range 1000 2000 any eq domain
 2299 deny ipv4 9.140.0.0 0.0.1.255 any
 permit tcp any any established
`)
	acl := cfg.ACLs["EDGE"]
	if acl == nil {
		t.Fatal("missing ACL")
	}
	if len(acl.Lines) != 5 {
		t.Fatalf("lines = %d: unrecognized=%v", len(acl.Lines), cfg.Unrecognized)
	}
	l0 := acl.Lines[0]
	if l0.Action != ir.Permit || l0.Protocol.Number != ir.ProtoNumTCP {
		t.Errorf("l0 = %+v", l0)
	}
	if len(l0.Dst) != 1 || !l0.Dst[0].Matches(netaddr.MustParseAddr("10.0.0.5")) || l0.Dst[0].Matches(netaddr.MustParseAddr("10.0.0.6")) {
		t.Errorf("l0 dst = %+v", l0.Dst)
	}
	if len(l0.DstPorts) != 2 || l0.DstPorts[0].Lo != 80 || l0.DstPorts[1].Lo != 443 {
		t.Errorf("l0 ports = %+v", l0.DstPorts)
	}
	l1 := acl.Lines[1]
	if l1.ICMPType != 8 || l1.Action != ir.Deny {
		t.Errorf("l1 = %+v", l1)
	}
	l2 := acl.Lines[2]
	if l2.Seq != 10 || len(l2.SrcPorts) != 1 || l2.SrcPorts[0].Hi != 2000 || l2.DstPorts[0].Lo != 53 {
		t.Errorf("l2 = %+v", l2)
	}
	l3 := acl.Lines[3]
	if l3.Seq != 2299 || !l3.Protocol.Any {
		t.Errorf("l3 = %+v", l3)
	}
	if !l3.Src[0].Matches(netaddr.MustParseAddr("9.140.0.3")) || l3.Src[0].Matches(netaddr.MustParseAddr("9.141.0.3")) {
		t.Errorf("l3 src = %+v", l3.Src)
	}
	if !acl.Lines[4].Established {
		t.Error("l4 established")
	}
}

func TestParseNumberedACLs(t *testing.T) {
	cfg, _ := Parse("t", `access-list 5 permit 10.0.0.0 0.255.255.255
access-list 101 deny tcp any any eq telnet
`)
	std := cfg.ACLs["5"]
	if std == nil || len(std.Lines) != 1 {
		t.Fatalf("acl 5 = %+v", std)
	}
	if !std.Lines[0].Src[0].Matches(netaddr.MustParseAddr("10.9.9.9")) {
		t.Error("acl 5 src")
	}
	ext := cfg.ACLs["101"]
	if ext == nil || len(ext.Lines) != 1 || ext.Lines[0].DstPorts[0].Lo != 23 {
		t.Fatalf("acl 101 = %+v", ext)
	}
}

func TestParseASPathAndExpandedCommunity(t *testing.T) {
	cfg, _ := Parse("t", `ip as-path access-list 10 permit _65000_
ip community-list expanded CREG permit ^10:1[01]$
ip community-list standard BOTH permit 10:10 10:11
`)
	al := cfg.ASPathLists["10"]
	if al == nil || al.Entries[0].Regex != "_65000_" {
		t.Fatalf("as-path list = %+v", al)
	}
	cl := cfg.CommunityLists["CREG"]
	if cl == nil || cl.Entries[0].Conjuncts[0].Regex != "^10:1[01]$" {
		t.Fatalf("expanded list = %+v", cl)
	}
	both := cfg.CommunityLists["BOTH"]
	if both == nil || len(both.Entries[0].Conjuncts) != 2 {
		t.Fatal("one-line standard entry should form a conjunction")
	}
}

func TestParseRouteMapSets(t *testing.T) {
	cfg, _ := Parse("t", `route-map ADJUST permit 10
 match metric 50
 match tag 7
 set metric 100
 set weight 200
 set tag 9
 set community 65000:1 65000:2 additive
 set comm-list STRIP delete
 set ip next-hop 10.0.0.254
 set as-path prepend 65000 65000
`)
	rm := cfg.RouteMaps["ADJUST"]
	if rm == nil || len(rm.Clauses) != 1 {
		t.Fatalf("ADJUST = %+v; unrecognized = %v", rm, cfg.Unrecognized)
	}
	cl := rm.Clauses[0]
	if len(cl.Matches) != 2 {
		t.Errorf("matches = %+v", cl.Matches)
	}
	if len(cl.Sets) != 7 {
		t.Fatalf("sets = %+v", cl.Sets)
	}
	if sc, ok := cl.Sets[3].(ir.SetCommunities); !ok || !sc.Additive || len(sc.Communities) != 2 {
		t.Errorf("set community = %+v", cl.Sets[3])
	}
	if dc, ok := cl.Sets[4].(ir.DeleteCommunity); !ok || dc.List != "STRIP" {
		t.Errorf("comm-list delete = %+v", cl.Sets[4])
	}
}

func TestUnrecognizedCollected(t *testing.T) {
	cfg, _ := Parse("t", `spanning-tree mode rapid-pvst
interface GigabitEthernet0/0
 mystery knob 42
`)
	if len(cfg.Unrecognized) != 2 {
		t.Errorf("unrecognized = %v", cfg.Unrecognized)
	}
}

func TestCommentsAndBlanksResetMode(t *testing.T) {
	cfg, _ := Parse("t", `route-map X permit 10
 set local-preference 100
!
ip route 10.0.0.0 255.0.0.0 192.0.2.1
`)
	if len(cfg.RouteMaps["X"].Clauses[0].Sets) != 1 {
		t.Error("set should attach to clause")
	}
	if len(cfg.StaticRoutes) != 1 {
		t.Error("static route after comment should parse at top level")
	}
}

func TestRouteMapContinue(t *testing.T) {
	cfg, _ := Parse("t", `route-map C permit 10
 set community 65000:1 additive
 continue 30
route-map C permit 30
 set local-preference 90
`)
	rm := cfg.RouteMaps["C"]
	if rm == nil || len(rm.Clauses) != 2 {
		t.Fatalf("C = %+v", rm)
	}
	if rm.Clauses[0].Action != ir.ClauseFallthrough {
		t.Errorf("continue should make the clause fall through: %v", rm.Clauses[0].Action)
	}
	if rm.Clauses[1].Action != ir.ClausePermit {
		t.Error("clause 30 should permit")
	}
	if len(cfg.Unrecognized) != 0 {
		t.Errorf("unrecognized: %v", cfg.Unrecognized)
	}
}

func TestStandardNamedACLBody(t *testing.T) {
	cfg, _ := Parse("t", `ip access-list standard MGMT
 permit 10.0.0.0 0.255.255.255
 deny 192.168.0.0 0.0.255.255
`)
	acl := cfg.ACLs["MGMT"]
	if acl == nil || len(acl.Lines) != 2 {
		t.Fatalf("MGMT = %+v (unrecognized %v)", acl, cfg.Unrecognized)
	}
	if !acl.Lines[0].Src[0].Matches(netaddr.MustParseAddr("10.9.9.9")) {
		t.Error("standard body src match")
	}
	if acl.Lines[1].Action != ir.Deny {
		t.Error("second line deny")
	}
}

// TestScatteredDefinitionSpans: route maps and `router bgp` / `router
// ospf` stanzas reopened later in the file, clauses of two maps
// interleaved with `!` lines, and prefix-list and ACL entries scattered
// between them. Every element's span must list
// exactly its own lines, in file order, and cover first to last line —
// what merging the per-line spans one by one produces.
func TestScatteredDefinitionSpans(t *testing.T) {
	text := `ip prefix-list A permit 10.0.0.0/8 le 24
!
route-map M permit 10
 match ip address prefix-list A
!
ip prefix-list B permit 20.0.0.0/8
route-map N deny 5
 set local-preference 50
ip prefix-list A deny 10.1.0.0/16
route-map M deny 20
 match ip address prefix-list B
 set metric 7
!
ip access-list extended E
 permit tcp any any eq 80
!
route-map N permit 15
route-map M permit 30
 set local-preference 300
ip prefix-list A permit 10.2.0.0/16 ge 24
ip access-list extended E
 deny ip any any
router bgp 65001
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map M in
router ospf 1
 router-id 1.1.1.1
!
router bgp 65001
 neighbor 10.0.0.3 remote-as 65003
router ospf 1
 redistribute static
`
	cfg, err := Parse("t.cfg", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Unrecognized) != 0 {
		t.Fatalf("unrecognized: %v", cfg.Unrecognized)
	}
	lines := strings.Split(text, "\n")
	want := func(nums ...int) ir.TextSpan {
		var sp ir.TextSpan
		for _, n := range nums {
			sp = sp.Merge(ir.TextSpan{File: "t.cfg", StartLine: n, EndLine: n, Lines: []string{strings.TrimSpace(lines[n-1])}})
		}
		return sp
	}
	m, n := cfg.RouteMaps["M"], cfg.RouteMaps["N"]
	for _, c := range []struct {
		name string
		got  ir.TextSpan
		want ir.TextSpan
	}{
		{"route-map M", m.Span, want(3, 4, 10, 11, 12, 18, 19)},
		{"route-map M seq 20", m.Clauses[1].Span, want(10, 11, 12)},
		{"route-map M seq 30", m.Clauses[2].Span, want(18, 19)},
		{"route-map N", n.Span, want(7, 8, 17)},
		{"prefix-list A", cfg.PrefixLists["A"].Span, want(1, 9, 20)},
		{"prefix-list B", cfg.PrefixLists["B"].Span, want(6)},
		{"acl E", cfg.ACLs["E"].Span, want(14, 15, 21, 22)},
		{"bgp", cfg.BGP.Span, want(23, 24, 25, 29, 30)},
		{"ospf", cfg.OSPF.Span, want(26, 27, 31, 32)},
		{"neighbor", cfg.BGP.Neighbors["10.0.0.2"].Span, want(24, 25)},
	} {
		if c.got.Text() != c.want.Text() || c.got.Location() != c.want.Location() {
			t.Errorf("%s: %s %q, want %s %q", c.name, c.got.Location(), c.got.Text(), c.want.Location(), c.want.Text())
		}
	}
}

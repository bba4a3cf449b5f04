// Package cisco parses the Cisco IOS configuration dialect subset that
// Campion's components need (Table 1 of the paper): route-maps,
// prefix-lists, community-lists, as-path access-lists, ACLs, static
// routes, interfaces, and the BGP/OSPF processes. Parsed elements carry
// exact source spans for text localization.
package cisco

import (
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/netaddr"
)

// Parse parses an IOS configuration. The file name is recorded in spans.
// Parsing is lenient: unrecognized lines are collected on the returned
// Config rather than failing, matching how Batfish degrades.
func Parse(file, text string) (*ir.Config, error) {
	return ParseWithVendor(ir.VendorCisco, file, text)
}

// ParseWithVendor parses an IOS-family dialect (Cisco IOS or Arista EOS,
// whose configuration language is IOS-compatible for the components
// Campion models) tagging the result with the given vendor and its
// default administrative distances.
func ParseWithVendor(vendor ir.Vendor, file, text string) (*ir.Config, error) {
	p := &parser{
		file: file,
		cfg:  ir.NewConfig("", vendor),
	}
	p.cfg.File = file
	p.cfg.AdminDistances = ir.DefaultAdminDistances(vendor)
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		p.lineNo = i + 1
		raw := strings.TrimRight(lines[i], " \t\r")
		line := strings.TrimSpace(raw)
		if line == "" || line == "!" || strings.HasPrefix(line, "!") {
			p.mode = modeTop
			continue
		}
		indented := len(raw) > 0 && (raw[0] == ' ' || raw[0] == '\t')
		p.parseLine(line, indented)
	}
	p.finish()
	if p.err != nil {
		return nil, p.err
	}
	return p.cfg, nil
}

type mode int

const (
	modeTop mode = iota
	modeInterface
	modeRouteMapClause
	modeRouterBGP
	modeRouterOSPF
	modeACL
)

type parser struct {
	file   string
	cfg    *ir.Config
	lineNo int
	mode   mode
	err    error

	curIface  *ir.Interface
	curClause *ir.RouteMapClause
	curMap    *ir.RouteMap
	curACL    *ir.ACL

	// ospfNetworks collects `network A.B.C.D WILD area N` statements to
	// associate interfaces with OSPF at finish().
	ospfNetworks []ospfNetwork
	// passive collects passive-interface names.
	passive map[string]bool
}

type ospfNetwork struct {
	wild netaddr.Wildcard
	area int64
}

func (p *parser) span(line string) ir.TextSpan {
	return ir.TextSpan{File: p.file, StartLine: p.lineNo, EndLine: p.lineNo, Lines: []string{line}}
}

func (p *parser) unrecognized(line string) {
	p.cfg.Unrecognized = append(p.cfg.Unrecognized, p.span(line))
}

func (p *parser) parseLine(line string, indented bool) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return
	}
	// Mode-entering and top-level commands are recognized regardless of
	// indentation; indented lines extend the current mode.
	switch f[0] {
	case "hostname":
		if len(f) >= 2 {
			p.cfg.Hostname = f[1]
		}
		p.mode = modeTop
		return
	case "interface":
		if len(f) >= 2 {
			p.curIface = &ir.Interface{Name: f[1], Span: p.span(line)}
			p.cfg.Interfaces = append(p.cfg.Interfaces, p.curIface)
			p.mode = modeInterface
		}
		return
	case "route-map":
		p.enterRouteMapClause(line, f)
		return
	case "router":
		if len(f) >= 3 && f[1] == "bgp" {
			asn, _ := strconv.ParseInt(f[2], 10, 64)
			if p.cfg.BGP == nil {
				p.cfg.BGP = ir.NewBGPConfig(asn)
			}
			p.cfg.BGP.Span.Extend(p.span(line))
			p.mode = modeRouterBGP
			return
		}
		if len(f) >= 3 && f[1] == "ospf" {
			pid, _ := strconv.Atoi(f[2])
			if p.cfg.OSPF == nil {
				p.cfg.OSPF = ir.NewOSPFConfig(pid)
			}
			p.cfg.OSPF.Span.Extend(p.span(line))
			p.mode = modeRouterOSPF
			return
		}
		p.unrecognized(line)
		return
	case "ip":
		if p.parseIPCommand(line, f) {
			return
		}
	case "access-list":
		p.parseNumberedACL(line, f)
		return
	}

	// Context-sensitive continuation lines.
	switch p.mode {
	case modeInterface:
		p.parseInterfaceLine(line, f)
	case modeRouteMapClause:
		p.parseRouteMapLine(line, f)
	case modeRouterBGP:
		p.parseBGPLine(line, f)
	case modeRouterOSPF:
		p.parseOSPFLine(line, f)
	case modeACL:
		p.parseACLBodyLine(line, f)
	default:
		p.unrecognized(line)
	}
}

// parseIPCommand handles top-level "ip ..." commands. It returns false when
// the line is actually a mode continuation (e.g. "ip address" inside an
// interface, "ip ospf cost" inside an interface).
func (p *parser) parseIPCommand(line string, f []string) bool {
	if len(f) < 2 {
		return false
	}
	switch f[1] {
	case "route":
		p.parseStaticRoute(line, f)
		return true
	case "prefix-list":
		p.parsePrefixList(line, f)
		return true
	case "community-list":
		p.parseCommunityList(line, f)
		return true
	case "as-path":
		p.parseASPathList(line, f)
		return true
	case "access-list":
		// ip access-list extended NAME / standard NAME
		if len(f) >= 4 {
			p.curACL = p.getACL(f[3])
			p.curACL.Span.Extend(p.span(line))
			p.mode = modeACL
			return true
		}
		return true
	case "address", "ospf", "access-group":
		// interface-mode continuations spelled with the "ip" prefix
		if p.mode == modeInterface {
			p.parseInterfaceLine(line, f)
			return true
		}
		return false
	}
	return false
}

func (p *parser) getACL(name string) *ir.ACL {
	if acl, ok := p.cfg.ACLs[name]; ok {
		return acl
	}
	acl := &ir.ACL{Name: name}
	p.cfg.ACLs[name] = acl
	return acl
}

// parseStaticRoute parses: ip route PREFIX MASK (NEXTHOP|INTERFACE) [AD]
// [tag T] [name ...]
func (p *parser) parseStaticRoute(line string, f []string) {
	if len(f) < 5 {
		p.unrecognized(line)
		return
	}
	addr, err1 := netaddr.ParseAddr(f[2])
	mask, err2 := netaddr.ParseAddr(f[3])
	if err1 != nil || err2 != nil {
		p.unrecognized(line)
		return
	}
	pfx, ok := netaddr.PrefixFromMask(addr, mask)
	if !ok {
		p.unrecognized(line)
		return
	}
	sr := &ir.StaticRoute{
		Prefix:        pfx,
		AdminDistance: p.cfg.AdminDistances[ir.ProtoStatic],
		Span:          p.span(line),
	}
	if nh, err := netaddr.ParseAddr(f[4]); err == nil {
		sr.NextHop = nh
		sr.HasNextHop = true
	} else {
		sr.Interface = f[4]
	}
	i := 5
	for i < len(f) {
		switch {
		case f[i] == "tag" && i+1 < len(f):
			t, err := strconv.ParseInt(f[i+1], 10, 64)
			if err == nil {
				sr.Tag, sr.HasTag = t, true
			}
			i += 2
		case f[i] == "name" && i+1 < len(f):
			i += 2
		default:
			if ad, err := strconv.Atoi(f[i]); err == nil && ad >= 1 && ad <= 255 {
				sr.AdminDistance = ad
			}
			i++
		}
	}
	p.cfg.StaticRoutes = append(p.cfg.StaticRoutes, sr)
}

// parsePrefixList parses: ip prefix-list NAME [seq N] permit|deny PFX
// [ge N] [le N]
func (p *parser) parsePrefixList(line string, f []string) {
	if len(f) < 5 {
		p.unrecognized(line)
		return
	}
	name := f[2]
	i := 3
	seq := 0
	if f[i] == "seq" && i+1 < len(f) {
		seq, _ = strconv.Atoi(f[i+1])
		i += 2
	}
	if i >= len(f) {
		p.unrecognized(line)
		return
	}
	var action ir.Action
	switch f[i] {
	case "permit":
		action = ir.Permit
	case "deny":
		action = ir.Deny
	default:
		p.unrecognized(line)
		return
	}
	i++
	if i >= len(f) {
		p.unrecognized(line)
		return
	}
	pfx, err := netaddr.ParsePrefix(f[i])
	if err != nil {
		p.unrecognized(line)
		return
	}
	i++
	lo, hi := pfx.Len, pfx.Len
	for i+1 < len(f) {
		n, err := strconv.Atoi(f[i+1])
		if err != nil || n < 0 || n > 32 {
			break
		}
		switch f[i] {
		case "ge":
			lo = uint8(n)
			if hi < 32 && hi == pfx.Len {
				hi = 32 // ge without le extends to /32
			}
		case "le":
			hi = uint8(n)
			if lo == pfx.Len {
				lo = pfx.Len
			}
		}
		i += 2
	}
	// IOS semantics: ge alone means [ge,32]; le alone means [len,le];
	// both mean [ge,le]; neither means exact.
	pl := p.cfg.PrefixLists[name]
	if pl == nil {
		pl = &ir.PrefixList{Name: name}
		p.cfg.PrefixLists[name] = pl
	}
	entry := ir.PrefixListEntry{
		Seq:    seq,
		Action: action,
		Range:  netaddr.PrefixRange{Prefix: pfx, Lo: lo, Hi: hi},
		Span:   p.span(line),
	}
	pl.Entries = append(pl.Entries, entry)
	pl.Span.Extend(entry.Span)
}

// parseCommunityList parses standard and expanded community lists.
func (p *parser) parseCommunityList(line string, f []string) {
	// ip community-list standard NAME permit C1 C2...
	// ip community-list expanded NAME permit REGEX
	// ip community-list NAME permit ...   (implicitly standard)
	i := 2
	kind := "standard"
	if i < len(f) && (f[i] == "standard" || f[i] == "expanded") {
		kind = f[i]
		i++
	}
	if i+1 >= len(f) {
		p.unrecognized(line)
		return
	}
	name := f[i]
	i++
	var action ir.Action
	switch f[i] {
	case "permit":
		action = ir.Permit
	case "deny":
		action = ir.Deny
	default:
		p.unrecognized(line)
		return
	}
	i++
	cl := p.cfg.CommunityLists[name]
	if cl == nil {
		cl = &ir.CommunityList{Name: name}
		p.cfg.CommunityLists[name] = cl
	}
	entry := ir.CommunityListEntry{Action: action, Span: p.span(line)}
	if kind == "expanded" {
		entry.Conjuncts = []ir.CommunityMatcher{{Regex: strings.Join(f[i:], " ")}}
	} else {
		// All communities on one line form a conjunction (the route must
		// carry each of them).
		for ; i < len(f); i++ {
			entry.Conjuncts = append(entry.Conjuncts, ir.CommunityMatcher{Literal: f[i]})
		}
	}
	if len(entry.Conjuncts) == 0 {
		p.unrecognized(line)
		return
	}
	cl.Entries = append(cl.Entries, entry)
	cl.Span.Extend(entry.Span)
}

// parseASPathList parses: ip as-path access-list NAME|NUM permit|deny REGEX
func (p *parser) parseASPathList(line string, f []string) {
	if len(f) < 6 || f[2] != "access-list" {
		p.unrecognized(line)
		return
	}
	name := f[3]
	var action ir.Action
	switch f[4] {
	case "permit":
		action = ir.Permit
	case "deny":
		action = ir.Deny
	default:
		p.unrecognized(line)
		return
	}
	al := p.cfg.ASPathLists[name]
	if al == nil {
		al = &ir.ASPathList{Name: name}
		p.cfg.ASPathLists[name] = al
	}
	entry := ir.ASPathListEntry{Action: action, Regex: strings.Join(f[5:], " "), Span: p.span(line)}
	al.Entries = append(al.Entries, entry)
	al.Span.Extend(entry.Span)
}

func (p *parser) parseInterfaceLine(line string, f []string) {
	if p.curIface == nil {
		p.unrecognized(line)
		return
	}
	ifc := p.curIface
	ifc.Span.Extend(p.span(line))
	switch {
	case f[0] == "description":
		ifc.Description = strings.TrimSpace(strings.TrimPrefix(line, "description"))
	case f[0] == "shutdown":
		ifc.Shutdown = true
	case f[0] == "ip" && len(f) >= 4 && f[1] == "address":
		addr, err1 := netaddr.ParseAddr(f[2])
		mask, err2 := netaddr.ParseAddr(f[3])
		if err1 != nil || err2 != nil {
			p.unrecognized(line)
			return
		}
		if pfx, ok := netaddr.PrefixFromMask(addr, mask); ok {
			ifc.Address = addr
			ifc.Subnet = pfx
			ifc.HasAddress = true
		}
	case f[0] == "ip" && len(f) >= 4 && f[1] == "access-group":
		if f[3] == "in" {
			ifc.ACLIn = f[2]
		} else {
			ifc.ACLOut = f[2]
		}
	case f[0] == "ip" && len(f) >= 4 && f[1] == "ospf" && f[2] == "cost":
		ifc.OSPFCost, _ = strconv.Atoi(f[3])
	case f[0] == "ip" && len(f) >= 5 && f[1] == "ospf" && f[3] == "area":
		// ip ospf PID area N
		ifc.OSPFEnabled = true
		ifc.OSPFArea, _ = strconv.ParseInt(f[4], 10, 64)
	default:
		p.unrecognized(line)
	}
}

func (p *parser) enterRouteMapClause(line string, f []string) {
	// route-map NAME permit|deny SEQ
	if len(f) < 3 {
		p.unrecognized(line)
		return
	}
	name := f[1]
	action := ir.ClausePermit
	if f[2] == "deny" {
		action = ir.ClauseDeny
	}
	seq := 10
	if len(f) >= 4 {
		if n, err := strconv.Atoi(f[3]); err == nil {
			seq = n
		}
	}
	rm := p.cfg.RouteMaps[name]
	if rm == nil {
		rm = &ir.RouteMap{Name: name, DefaultAction: ir.Deny}
		p.cfg.RouteMaps[name] = rm
	}
	p.curMap = rm
	p.curClause = &ir.RouteMapClause{Seq: seq, Action: action, Span: p.span(line)}
	rm.Clauses = append(rm.Clauses, p.curClause)
	rm.Span.Extend(p.curClause.Span)
	p.mode = modeRouteMapClause
}

func (p *parser) parseRouteMapLine(line string, f []string) {
	if p.curClause == nil {
		p.unrecognized(line)
		return
	}
	cl := p.curClause
	cl.Span.Extend(p.span(line))
	p.curMap.Span.Extend(p.span(line))
	switch f[0] {
	case "match":
		p.parseRouteMapMatch(line, f, cl)
	case "set":
		p.parseRouteMapSet(line, f, cl)
	case "continue":
		// "continue [SEQ]": processing proceeds with the next clause
		// after applying this clause's sets. Jumping to a specific later
		// sequence is approximated by plain fall-through (clauses between
		// this one and the target still evaluate their matches); exact
		// targeted continues are rare and this keeps the model loop-free.
		cl.Action = ir.ClauseFallthrough
	case "description":
		// ignore
	default:
		p.unrecognized(line)
	}
}

func (p *parser) parseRouteMapMatch(line string, f []string, cl *ir.RouteMapClause) {
	if len(f) < 3 {
		p.unrecognized(line)
		return
	}
	switch f[1] {
	case "ip":
		switch {
		case len(f) >= 5 && f[2] == "address" && f[3] == "prefix-list":
			cl.Matches = append(cl.Matches, ir.MatchPrefixList{Lists: f[4:]})
		case len(f) >= 4 && f[2] == "address":
			// Legacy: match ip address PREFIX-LIST-NAME-or-ACL. Campion
			// treats the name as a prefix list reference.
			cl.Matches = append(cl.Matches, ir.MatchPrefixList{Lists: f[3:]})
		case len(f) >= 5 && f[2] == "next-hop" && f[3] == "prefix-list":
			cl.Matches = append(cl.Matches, ir.MatchNextHop{Lists: f[4:]})
		default:
			p.unrecognized(line)
		}
	case "community":
		cl.Matches = append(cl.Matches, ir.MatchCommunity{Lists: f[2:]})
	case "as-path":
		cl.Matches = append(cl.Matches, ir.MatchASPath{Lists: f[2:]})
	case "metric":
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			p.unrecognized(line)
			return
		}
		cl.Matches = append(cl.Matches, ir.MatchMED{Value: v})
	case "tag":
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			p.unrecognized(line)
			return
		}
		cl.Matches = append(cl.Matches, ir.MatchTag{Value: v})
	case "source-protocol":
		var protos []ir.Protocol
		for _, s := range f[2:] {
			switch s {
			case "connected":
				protos = append(protos, ir.ProtoConnected)
			case "static":
				protos = append(protos, ir.ProtoStatic)
			case "ospf":
				protos = append(protos, ir.ProtoOSPF)
			case "bgp":
				protos = append(protos, ir.ProtoBGP)
			}
		}
		cl.Matches = append(cl.Matches, ir.MatchProtocol{Protocols: protos})
	default:
		p.unrecognized(line)
	}
}

func (p *parser) parseRouteMapSet(line string, f []string, cl *ir.RouteMapClause) {
	if len(f) < 3 {
		p.unrecognized(line)
		return
	}
	switch f[1] {
	case "local-preference":
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			p.unrecognized(line)
			return
		}
		cl.Sets = append(cl.Sets, ir.SetLocalPref{Value: v})
	case "metric":
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			p.unrecognized(line)
			return
		}
		cl.Sets = append(cl.Sets, ir.SetMED{Value: v})
	case "weight":
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			p.unrecognized(line)
			return
		}
		cl.Sets = append(cl.Sets, ir.SetWeight{Value: v})
	case "tag":
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			p.unrecognized(line)
			return
		}
		cl.Sets = append(cl.Sets, ir.SetTag{Value: v})
	case "community":
		comms := f[2:]
		additive := false
		if len(comms) > 0 && comms[len(comms)-1] == "additive" {
			additive = true
			comms = comms[:len(comms)-1]
		}
		cl.Sets = append(cl.Sets, ir.SetCommunities{Communities: comms, Additive: additive})
	case "comm-list":
		if len(f) >= 4 && f[3] == "delete" {
			cl.Sets = append(cl.Sets, ir.DeleteCommunity{List: f[2]})
		} else {
			p.unrecognized(line)
		}
	case "ip":
		if len(f) >= 4 && f[2] == "next-hop" {
			if a, err := netaddr.ParseAddr(f[3]); err == nil {
				cl.Sets = append(cl.Sets, ir.SetNextHop{Addr: a})
				return
			}
		}
		p.unrecognized(line)
	case "as-path":
		if len(f) >= 4 && f[2] == "prepend" {
			var asns []int64
			for _, s := range f[3:] {
				if n, err := strconv.ParseInt(s, 10, 64); err == nil {
					asns = append(asns, n)
				}
			}
			cl.Sets = append(cl.Sets, ir.SetASPathPrepend{ASNs: asns})
			return
		}
		p.unrecognized(line)
	default:
		p.unrecognized(line)
	}
}

func (p *parser) parseBGPLine(line string, f []string) {
	bgp := p.cfg.BGP
	if bgp == nil {
		p.unrecognized(line)
		return
	}
	bgp.Span.Extend(p.span(line))
	switch f[0] {
	case "bgp":
		if len(f) >= 3 && f[1] == "router-id" {
			if a, err := netaddr.ParseAddr(f[2]); err == nil {
				bgp.RouterID = a
			}
		}
	case "neighbor":
		p.parseBGPNeighbor(line, f, bgp)
	case "network":
		p.parseBGPNetwork(line, f, bgp)
	case "redistribute":
		p.parseRedistribute(line, f, &bgp.Redistribute)
	case "distance":
		// distance bgp EXTERNAL INTERNAL LOCAL
		if len(f) >= 4 && f[1] == "bgp" {
			if d, err := strconv.Atoi(f[2]); err == nil {
				p.cfg.AdminDistances[ir.ProtoBGP] = d
				p.cfg.ExplicitDistances[ir.ProtoBGP] = true
			}
			if len(f) >= 4 {
				if d, err := strconv.Atoi(f[3]); err == nil {
					p.cfg.AdminDistances[ir.ProtoIBGP] = d
					p.cfg.ExplicitDistances[ir.ProtoIBGP] = true
				}
			}
		}
	case "address-family", "exit-address-family":
		// IPv4 unicast assumed; ignore the wrapper.
	default:
		p.unrecognized(line)
	}
}

func (p *parser) parseBGPNeighbor(line string, f []string, bgp *ir.BGPConfig) {
	if len(f) < 3 {
		p.unrecognized(line)
		return
	}
	addr, err := netaddr.ParseAddr(f[1])
	if err != nil {
		p.unrecognized(line)
		return
	}
	key := addr.String()
	n := bgp.Neighbors[key]
	if n == nil {
		n = &ir.BGPNeighbor{Addr: addr}
		bgp.Neighbors[key] = n
	}
	n.Span.Extend(p.span(line))
	switch f[2] {
	case "remote-as":
		if len(f) >= 4 {
			n.RemoteAS, _ = strconv.ParseInt(f[3], 10, 64)
		}
	case "description":
		n.Description = strings.Join(f[3:], " ")
	case "route-map":
		if len(f) >= 5 {
			if f[4] == "in" {
				n.ImportPolicies = append(n.ImportPolicies, f[3])
			} else {
				n.ExportPolicies = append(n.ExportPolicies, f[3])
			}
		}
	case "route-reflector-client":
		n.RouteReflectorClient = true
	case "send-community":
		n.SendCommunity = true
	case "next-hop-self":
		n.NextHopSelf = true
	case "ebgp-multihop":
		n.EBGPMultihop = true
	case "shutdown":
		n.Shutdown = true
	case "weight":
		if len(f) >= 4 {
			n.Weight, _ = strconv.ParseInt(f[3], 10, 64)
		}
	case "local-as":
		if len(f) >= 4 {
			n.LocalAS, _ = strconv.ParseInt(f[3], 10, 64)
		}
	default:
		p.unrecognized(line)
	}
}

func (p *parser) parseBGPNetwork(line string, f []string, bgp *ir.BGPConfig) {
	if len(f) < 2 {
		p.unrecognized(line)
		return
	}
	if len(f) >= 4 && f[2] == "mask" {
		addr, err1 := netaddr.ParseAddr(f[1])
		mask, err2 := netaddr.ParseAddr(f[3])
		if err1 == nil && err2 == nil {
			if pfx, ok := netaddr.PrefixFromMask(addr, mask); ok {
				bgp.Networks = append(bgp.Networks, pfx)
				return
			}
		}
		p.unrecognized(line)
		return
	}
	if pfx, err := netaddr.ParsePrefix(f[1]); err == nil {
		bgp.Networks = append(bgp.Networks, pfx)
		return
	}
	p.unrecognized(line)
}

func (p *parser) parseRedistribute(line string, f []string, out *[]ir.Redistribution) {
	if len(f) < 2 {
		p.unrecognized(line)
		return
	}
	var proto ir.Protocol
	switch f[1] {
	case "connected":
		proto = ir.ProtoConnected
	case "static":
		proto = ir.ProtoStatic
	case "ospf":
		proto = ir.ProtoOSPF
	case "bgp":
		proto = ir.ProtoBGP
	default:
		p.unrecognized(line)
		return
	}
	r := ir.Redistribution{From: proto, Span: p.span(line)}
	for i := 2; i+1 < len(f); i++ {
		switch f[i] {
		case "route-map":
			r.RouteMap = f[i+1]
		case "metric":
			r.Metric, _ = strconv.ParseInt(f[i+1], 10, 64)
		}
	}
	*out = append(*out, r)
}

func (p *parser) parseOSPFLine(line string, f []string) {
	ospf := p.cfg.OSPF
	if ospf == nil {
		p.unrecognized(line)
		return
	}
	ospf.Span.Extend(p.span(line))
	switch f[0] {
	case "router-id":
		if len(f) >= 2 {
			if a, err := netaddr.ParseAddr(f[1]); err == nil {
				ospf.RouterID = a
			}
		}
	case "network":
		// network A.B.C.D WILDCARD area N
		if len(f) >= 5 && f[3] == "area" {
			addr, err1 := netaddr.ParseAddr(f[1])
			wild, err2 := netaddr.ParseAddr(f[2])
			area, err3 := strconv.ParseInt(f[4], 10, 64)
			if err1 == nil && err2 == nil && err3 == nil {
				p.ospfNetworks = append(p.ospfNetworks, ospfNetwork{
					wild: netaddr.Wildcard{Addr: addr, Mask: wild},
					area: area,
				})
				return
			}
		}
		p.unrecognized(line)
	case "passive-interface":
		if len(f) >= 2 {
			if p.passive == nil {
				p.passive = map[string]bool{}
			}
			p.passive[f[1]] = true
		}
	case "redistribute":
		p.parseRedistribute(line, f, &ospf.Redistribute)
	case "distance":
		if len(f) >= 2 {
			if d, err := strconv.Atoi(f[1]); err == nil {
				p.cfg.AdminDistances[ir.ProtoOSPF] = d
				p.cfg.ExplicitDistances[ir.ProtoOSPF] = true
			}
		}
	default:
		p.unrecognized(line)
	}
}

// finish associates interfaces with OSPF based on network statements and
// fills the OSPF interface table.
func (p *parser) finish() {
	if p.cfg.OSPF == nil {
		return
	}
	for _, ifc := range p.cfg.Interfaces {
		enabled := ifc.OSPFEnabled
		area := ifc.OSPFArea
		if !enabled && ifc.HasAddress {
			for _, n := range p.ospfNetworks {
				if n.wild.Matches(ifc.Address) {
					enabled = true
					area = n.area
					break
				}
			}
		}
		if !enabled {
			continue
		}
		cost := ifc.OSPFCost
		if cost == 0 {
			cost = 1 // IOS default for >=100Mb interfaces
		}
		p.cfg.OSPF.Interfaces[ifc.Name] = &ir.OSPFInterface{
			Name:    ifc.Name,
			Cost:    cost,
			Area:    area,
			Passive: p.passive[ifc.Name],
			Subnet:  ifc.Subnet,
			Span:    ifc.Span,
		}
	}
}

// Package juniper parses the Juniper JunOS configuration dialect subset
// that Campion's components need: policy-options (prefix-lists,
// communities, as-paths, policy-statements), firewall filters, static
// routes, interfaces, and the BGP/OSPF stanzas. Parsed elements carry
// exact source spans for text localization.
package juniper

import (
	"strconv"
	"strings"

	"repro/internal/community"
	"repro/internal/ir"
	"repro/internal/netaddr"
)

// Parse parses a JunOS configuration, accepting both the curly-brace
// hierarchy and the "display set" form (auto-detected). Unrecognized
// statements are collected on the Config, not fatal.
func Parse(file, text string) (*ir.Config, error) {
	var tree []*stmt
	var err error
	if isSetFormat(text) {
		tree, err = buildSetTree(text)
	} else {
		var toks []token
		toks, err = tokenize(text)
		if err == nil {
			tree, err = parseTree(toks)
		}
	}
	if err != nil {
		return nil, err
	}
	w := &walker{
		file:  file,
		lines: strings.Split(text, "\n"),
		cfg:   ir.NewConfig("", ir.VendorJuniper),
	}
	w.cfg.File = file
	w.cfg.AdminDistances = ir.DefaultAdminDistances(ir.VendorJuniper)
	for _, s := range tree {
		w.topLevel(s)
	}
	return w.cfg, nil
}

type walker struct {
	file  string
	lines []string
	cfg   *ir.Config
}

// span converts a statement's line range into a TextSpan with raw text.
func (w *walker) span(s *stmt) ir.TextSpan {
	start, end := s.startLine, s.endLine
	if end < start {
		end = start
	}
	var lines []string
	for i := start; i <= end && i-1 < len(w.lines); i++ {
		lines = append(lines, strings.TrimRight(w.lines[i-1], " \t\r"))
	}
	return ir.TextSpan{File: w.file, StartLine: start, EndLine: end, Lines: lines}
}

func (w *walker) unrecognized(s *stmt) {
	sp := w.span(s)
	// Collapse huge blocks to their header line to keep reports readable.
	if len(sp.Lines) > 3 {
		sp.Lines = sp.Lines[:1]
	}
	w.cfg.Unrecognized = append(w.cfg.Unrecognized, sp)
}

func (w *walker) topLevel(s *stmt) {
	switch s.word(0) {
	case "system":
		if hn := s.find("host-name"); hn != nil {
			w.cfg.Hostname = hn.word(1)
		}
	case "interfaces":
		for _, c := range s.children {
			w.interfaceStmt(c)
		}
	case "policy-options":
		for _, c := range s.children {
			w.policyOption(c)
		}
	case "firewall":
		w.firewall(s)
	case "routing-options":
		for _, c := range s.children {
			w.routingOption(c)
		}
	case "protocols":
		for _, c := range s.children {
			switch c.word(0) {
			case "bgp":
				w.bgp(c)
			case "ospf":
				w.ospf(c)
			default:
				w.unrecognized(c)
			}
		}
	default:
		w.unrecognized(s)
	}
}

func (w *walker) interfaceStmt(s *stmt) {
	name := s.word(0)
	base := &ir.Interface{Name: name, Span: w.span(s)}
	var units []*ir.Interface
	for _, c := range s.children {
		switch c.word(0) {
		case "description":
			base.Description = strings.Join(c.words[1:], " ")
		case "disable":
			base.Shutdown = true
		case "unit":
			u := &ir.Interface{
				Name:        name + "." + c.word(1),
				Description: base.Description,
				Shutdown:    base.Shutdown,
				Span:        w.span(c),
			}
			w.unit(c, u)
			units = append(units, u)
		}
	}
	if len(units) == 0 {
		w.cfg.Interfaces = append(w.cfg.Interfaces, base)
		return
	}
	for _, u := range units {
		u.Shutdown = u.Shutdown || base.Shutdown
		w.cfg.Interfaces = append(w.cfg.Interfaces, u)
	}
}

func (w *walker) unit(s *stmt, ifc *ir.Interface) {
	fam := s.find("family")
	if fam == nil || fam.word(1) != "inet" {
		return
	}
	for _, c := range fam.children {
		switch c.word(0) {
		case "address":
			if pfx, err := netaddr.ParsePrefix(c.word(1)); err == nil {
				// The configured address keeps its host bits; the subnet
				// is the canonical prefix.
				if a, err := netaddr.ParseAddr(strings.Split(c.word(1), "/")[0]); err == nil {
					ifc.Address = a
				}
				ifc.Subnet = pfx
				ifc.HasAddress = true
			}
		case "filter":
			for _, fc := range c.children {
				switch fc.word(0) {
				case "input":
					ifc.ACLIn = fc.word(1)
				case "output":
					ifc.ACLOut = fc.word(1)
				}
			}
		}
	}
}

func (w *walker) policyOption(s *stmt) {
	switch s.word(0) {
	case "prefix-list":
		pl := &ir.PrefixList{Name: s.word(1), Span: w.span(s)}
		for _, c := range s.children {
			pfx, err := netaddr.ParsePrefix(c.word(0))
			if err != nil {
				w.unrecognized(c)
				continue
			}
			pl.Entries = append(pl.Entries, ir.PrefixListEntry{
				Action: ir.Permit,
				Range:  netaddr.ExactRange(pfx),
				Span:   w.span(c),
			})
		}
		w.cfg.PrefixLists[pl.Name] = pl
	case "community":
		// community NAME members [ A B ]; — the route must carry a
		// community matching EACH member (JunOS AND semantics).
		name := s.word(1)
		var members []string
		if s.word(2) == "members" {
			members = s.words[3:]
		} else if m := s.find("members"); m != nil {
			members = m.words[1:]
		}
		entry := ir.CommunityListEntry{Action: ir.Permit, Span: w.span(s)}
		for _, m := range members {
			if community.IsRegexPattern(m) {
				entry.Conjuncts = append(entry.Conjuncts, ir.CommunityMatcher{Regex: m})
			} else {
				entry.Conjuncts = append(entry.Conjuncts, ir.CommunityMatcher{Literal: m})
			}
		}
		cl := w.cfg.CommunityLists[name]
		if cl == nil {
			cl = &ir.CommunityList{Name: name, Span: w.span(s)}
			w.cfg.CommunityLists[name] = cl
		}
		cl.Entries = append(cl.Entries, entry)
	case "as-path":
		// as-path NAME "REGEX";
		al := w.cfg.ASPathLists[s.word(1)]
		if al == nil {
			al = &ir.ASPathList{Name: s.word(1), Span: w.span(s)}
			w.cfg.ASPathLists[al.Name] = al
		}
		al.Entries = append(al.Entries, ir.ASPathListEntry{
			Action: ir.Permit,
			Regex:  strings.Join(s.words[2:], " "),
			Span:   w.span(s),
		})
	case "policy-statement":
		w.policyStatement(s)
	default:
		w.unrecognized(s)
	}
}

func (w *walker) policyStatement(s *stmt) {
	rm := &ir.RouteMap{
		Name: s.word(1),
		// JunOS BGP policies default-accept when no term decides; the
		// cross-vendor fall-through difference the university study found
		// comes exactly from this asymmetry with IOS's default deny.
		DefaultAction: ir.Permit,
		Span:          w.span(s),
	}
	seq := 0
	addTerm := func(name string, body *stmt) {
		seq++
		cl := &ir.RouteMapClause{Seq: seq, Name: name, Span: w.span(body)}
		w.term(body, cl)
		rm.Clauses = append(rm.Clauses, cl)
	}
	var anonymous []*stmt // from/then directly under the policy
	for _, c := range s.children {
		switch c.word(0) {
		case "term":
			addTerm(c.word(1), c)
		case "from", "then":
			anonymous = append(anonymous, c)
		default:
			w.unrecognized(c)
		}
	}
	if len(anonymous) > 0 {
		body := &stmt{children: anonymous, startLine: s.startLine, endLine: s.endLine}
		addTerm("", body)
	}
	w.cfg.RouteMaps[rm.Name] = rm
}

// term fills a clause from a policy term's from/then blocks.
func (w *walker) term(s *stmt, cl *ir.RouteMapClause) {
	cl.Action = ir.ClauseFallthrough // no terminal action ⇒ fall through
	for _, c := range s.children {
		switch c.word(0) {
		case "from":
			w.fromConditions(c, cl)
		case "then":
			w.thenActions(c, cl)
		default:
			w.unrecognized(c)
		}
	}
}

func (w *walker) fromConditions(s *stmt, cl *ir.RouteMapClause) {
	// "from prefix-list NETS;" (inline) or "from { ... }" (block).
	if len(s.words) > 1 {
		w.fromCondition(&stmt{words: s.words[1:], startLine: s.startLine, endLine: s.endLine}, cl)
		return
	}
	for _, c := range s.children {
		w.fromCondition(c, cl)
	}
}

func (w *walker) fromCondition(c *stmt, cl *ir.RouteMapClause) {
	switch c.word(0) {
	case "prefix-list":
		cl.Matches = append(cl.Matches, ir.MatchPrefixList{Lists: []string{c.word(1)}})
	case "prefix-list-filter":
		modifier := c.word(2)
		if modifier == "" {
			modifier = "exact"
		}
		cl.Matches = append(cl.Matches, ir.MatchPrefixListFilter{List: c.word(1), Modifier: modifier})
	case "route-filter":
		pfx, err := netaddr.ParsePrefix(c.word(1))
		if err != nil {
			w.unrecognized(c)
			return
		}
		r, ok := routeFilterRange(pfx, c.words[2:])
		if !ok {
			w.unrecognized(c)
			return
		}
		// Multiple route-filters in one from block are alternatives;
		// merge into a single MatchPrefixRanges.
		for i, m := range cl.Matches {
			if mr, ok := m.(ir.MatchPrefixRanges); ok {
				mr.Ranges = append(mr.Ranges, r)
				cl.Matches[i] = mr
				return
			}
		}
		cl.Matches = append(cl.Matches, ir.MatchPrefixRanges{Ranges: []netaddr.PrefixRange{r}})
	case "community":
		cl.Matches = append(cl.Matches, ir.MatchCommunity{Lists: c.words[1:]})
	case "as-path":
		cl.Matches = append(cl.Matches, ir.MatchASPath{Lists: c.words[1:]})
	case "protocol":
		var protos []ir.Protocol
		for _, p := range c.words[1:] {
			switch p {
			case "bgp":
				protos = append(protos, ir.ProtoBGP)
			case "ospf":
				protos = append(protos, ir.ProtoOSPF)
			case "static":
				protos = append(protos, ir.ProtoStatic)
			case "direct":
				protos = append(protos, ir.ProtoConnected)
			case "aggregate":
				protos = append(protos, ir.ProtoAggregate)
			case "local":
				protos = append(protos, ir.ProtoLocal)
			}
		}
		cl.Matches = append(cl.Matches, ir.MatchProtocol{Protocols: protos})
	case "metric":
		if v, err := strconv.ParseInt(c.word(1), 10, 64); err == nil {
			cl.Matches = append(cl.Matches, ir.MatchMED{Value: v})
		}
	case "tag":
		if v, err := strconv.ParseInt(c.word(1), 10, 64); err == nil {
			cl.Matches = append(cl.Matches, ir.MatchTag{Value: v})
		}
	case "next-hop":
		// Model as an inline /32 prefix list on the next hop.
		if a, err := netaddr.ParseAddr(c.word(1)); err == nil {
			name := "__nh_" + a.String()
			w.cfg.PrefixLists[name] = &ir.PrefixList{
				Name: name,
				Entries: []ir.PrefixListEntry{{
					Action: ir.Permit,
					Range:  netaddr.ExactRange(netaddr.Prefix{Addr: a, Len: 32}),
				}},
			}
			cl.Matches = append(cl.Matches, ir.MatchNextHop{Lists: []string{name}})
			return
		}
		w.unrecognized(c)
	default:
		w.unrecognized(c)
	}
}

// routeFilterRange maps a JunOS route-filter modifier to a prefix range.
func routeFilterRange(pfx netaddr.Prefix, mods []string) (netaddr.PrefixRange, bool) {
	if len(mods) == 0 {
		return netaddr.ExactRange(pfx), true
	}
	switch mods[0] {
	case "exact":
		return netaddr.ExactRange(pfx), true
	case "orlonger":
		return netaddr.PrefixRange{Prefix: pfx, Lo: pfx.Len, Hi: 32}, true
	case "longer":
		if pfx.Len >= 32 {
			return netaddr.PrefixRange{Prefix: pfx, Lo: 33, Hi: 32}, true // empty
		}
		return netaddr.PrefixRange{Prefix: pfx, Lo: pfx.Len + 1, Hi: 32}, true
	case "upto":
		if len(mods) >= 2 {
			if n, err := strconv.Atoi(strings.TrimPrefix(mods[1], "/")); err == nil && n >= 0 && n <= 32 {
				return netaddr.PrefixRange{Prefix: pfx, Lo: pfx.Len, Hi: uint8(n)}, true
			}
		}
		return netaddr.PrefixRange{}, false
	case "prefix-length-range":
		if len(mods) >= 2 {
			parts := strings.SplitN(mods[1], "-", 2)
			if len(parts) == 2 {
				lo, err1 := strconv.Atoi(strings.TrimPrefix(parts[0], "/"))
				hi, err2 := strconv.Atoi(strings.TrimPrefix(parts[1], "/"))
				if err1 == nil && err2 == nil && lo >= 0 && hi <= 32 {
					return netaddr.PrefixRange{Prefix: pfx, Lo: uint8(lo), Hi: uint8(hi)}, true
				}
			}
		}
		return netaddr.PrefixRange{}, false
	}
	return netaddr.PrefixRange{}, false
}

func (w *walker) thenActions(s *stmt, cl *ir.RouteMapClause) {
	// "then reject;" (inline) or "then { ... }" (block).
	if len(s.words) > 1 {
		w.thenAction(&stmt{words: s.words[1:], startLine: s.startLine, endLine: s.endLine}, cl)
		return
	}
	for _, c := range s.children {
		w.thenAction(c, cl)
	}
}

func (w *walker) thenAction(c *stmt, cl *ir.RouteMapClause) {
	switch c.word(0) {
	case "accept":
		cl.Action = ir.ClausePermit
	case "reject":
		cl.Action = ir.ClauseDeny
	case "next":
		// "next term" — explicit fall-through.
		cl.Action = ir.ClauseFallthrough
	case "local-preference":
		if v, err := strconv.ParseInt(c.word(1), 10, 64); err == nil {
			cl.Sets = append(cl.Sets, ir.SetLocalPref{Value: v})
		}
	case "metric":
		if v, err := strconv.ParseInt(c.word(1), 10, 64); err == nil {
			cl.Sets = append(cl.Sets, ir.SetMED{Value: v})
		}
	case "tag":
		if v, err := strconv.ParseInt(c.word(1), 10, 64); err == nil {
			cl.Sets = append(cl.Sets, ir.SetTag{Value: v})
		}
	case "community":
		switch c.word(1) {
		case "add":
			cl.Sets = append(cl.Sets, ir.SetCommunities{Communities: w.communityMembers(c.word(2)), Additive: true})
		case "set":
			cl.Sets = append(cl.Sets, ir.SetCommunities{Communities: w.communityMembers(c.word(2))})
		case "delete":
			cl.Sets = append(cl.Sets, ir.DeleteCommunity{List: c.word(2)})
		default:
			w.unrecognized(c)
		}
	case "next-hop":
		if a, err := netaddr.ParseAddr(c.word(1)); err == nil {
			cl.Sets = append(cl.Sets, ir.SetNextHop{Addr: a})
		}
	case "as-path-prepend":
		var asns []int64
		for _, s := range c.words[1:] {
			if n, err := strconv.ParseInt(s, 10, 64); err == nil {
				asns = append(asns, n)
			}
		}
		cl.Sets = append(cl.Sets, ir.SetASPathPrepend{ASNs: asns})
	default:
		w.unrecognized(c)
	}
}

// communityMembers resolves a named community's literal members for
// community add/set actions.
func (w *walker) communityMembers(name string) []string {
	cl := w.cfg.CommunityLists[name]
	if cl == nil {
		return []string{name} // inline literal
	}
	var out []string
	for _, e := range cl.Entries {
		for _, m := range e.Conjuncts {
			if m.Literal != "" {
				out = append(out, m.Literal)
			}
		}
	}
	return out
}

func (w *walker) firewall(s *stmt) {
	fam := s.find("family")
	filters := s.children
	if fam != nil && fam.word(1) == "inet" {
		filters = fam.children
	}
	for _, f := range filters {
		if f.word(0) != "filter" {
			w.unrecognized(f)
			continue
		}
		acl := &ir.ACL{Name: f.word(1), Span: w.span(f)}
		for _, t := range f.children {
			if t.word(0) != "term" {
				w.unrecognized(t)
				continue
			}
			line := ir.NewACLLine(ir.Deny)
			line.Span = w.span(t)
			w.filterTerm(t, line)
			acl.Lines = append(acl.Lines, line)
		}
		w.cfg.ACLs[acl.Name] = acl
	}
}

func (w *walker) filterTerm(s *stmt, line *ir.ACLLine) {
	for _, c := range s.children {
		switch c.word(0) {
		case "from":
			for _, fc := range c.children {
				w.filterFrom(fc, line)
			}
			if len(c.words) > 1 {
				w.filterFrom(&stmt{words: c.words[1:], startLine: c.startLine, endLine: c.endLine}, line)
			}
		case "then":
			acts := c.words[1:]
			for _, a := range c.children {
				acts = append(acts, a.word(0))
			}
			for _, a := range acts {
				switch a {
				case "accept":
					line.Action = ir.Permit
				case "reject", "discard":
					line.Action = ir.Deny
				case "count", "log", "syslog":
					// side effects, ignored
				}
			}
		}
	}
}

func (w *walker) filterFrom(c *stmt, line *ir.ACLLine) {
	parseAddrs := func(c *stmt) []netaddr.Wildcard {
		var out []netaddr.Wildcard
		add := func(s string) {
			if pfx, err := netaddr.ParsePrefix(s); err == nil {
				out = append(out, netaddr.WildcardFromPrefix(pfx))
			}
		}
		for _, a := range c.children {
			add(a.word(0))
		}
		for _, wd := range c.words[1:] {
			add(wd)
		}
		return out
	}
	switch c.word(0) {
	case "source-address":
		line.Src = append(line.Src, parseAddrs(c)...)
	case "destination-address":
		line.Dst = append(line.Dst, parseAddrs(c)...)
	case "address":
		addrs := parseAddrs(c)
		line.Src = append(line.Src, addrs...)
		line.Dst = append(line.Dst, addrs...)
	case "protocol":
		for _, p := range c.words[1:] {
			if m, ok := ir.ProtocolByName(p); ok {
				line.Protocol = m
			} else if n, err := strconv.Atoi(p); err == nil && n >= 0 && n <= 255 {
				line.Protocol = ir.ProtoNumber(uint8(n))
			}
		}
	case "source-port":
		line.SrcPorts = append(line.SrcPorts, parseJuniperPorts(c.words[1:])...)
	case "destination-port":
		line.DstPorts = append(line.DstPorts, parseJuniperPorts(c.words[1:])...)
	case "icmp-type":
		switch c.word(1) {
		case "echo-request":
			line.ICMPType = 8
		case "echo-reply":
			line.ICMPType = 0
		default:
			if n, err := strconv.Atoi(c.word(1)); err == nil {
				line.ICMPType = n
			}
		}
	case "tcp-established":
		line.Established = true
	default:
		w.unrecognized(c)
	}
}

// parseJuniperPorts parses port words: "80", "1024-65535", "ssh".
func parseJuniperPorts(words []string) []netaddr.PortRange {
	var out []netaddr.PortRange
	for _, s := range words {
		if i := strings.IndexByte(s, '-'); i > 0 {
			lo, ok1 := ir.PortByName(s[:i])
			hi, ok2 := ir.PortByName(s[i+1:])
			if ok1 && ok2 && lo <= hi {
				out = append(out, netaddr.PortRange{Lo: lo, Hi: hi})
			}
			continue
		}
		if p, ok := ir.PortByName(s); ok {
			out = append(out, netaddr.SinglePort(p))
		}
	}
	return out
}

func (w *walker) routingOption(s *stmt) {
	switch s.word(0) {
	case "static":
		for _, c := range s.children {
			if c.word(0) != "route" {
				w.unrecognized(c)
				continue
			}
			w.staticRoute(c)
		}
	case "router-id":
		// recorded on both processes if present
		if a, err := netaddr.ParseAddr(s.word(1)); err == nil {
			if w.cfg.BGP != nil {
				w.cfg.BGP.RouterID = a
			}
			if w.cfg.OSPF != nil {
				w.cfg.OSPF.RouterID = a
			}
		}
	case "autonomous-system":
		if n, err := strconv.ParseInt(s.word(1), 10, 64); err == nil {
			if w.cfg.BGP == nil {
				w.cfg.BGP = ir.NewBGPConfig(n)
			} else {
				w.cfg.BGP.ASN = n
			}
		}
	default:
		w.unrecognized(s)
	}
}

func (w *walker) staticRoute(c *stmt) {
	pfx, err := netaddr.ParsePrefix(c.word(1))
	if err != nil {
		w.unrecognized(c)
		return
	}
	sr := &ir.StaticRoute{
		Prefix:        pfx,
		AdminDistance: w.cfg.AdminDistances[ir.ProtoStatic],
		Span:          w.span(c),
	}
	// Inline form: route P next-hop A; single-word attributes like
	// discard/reject take no value.
	for i := 2; i < len(c.words); {
		key := c.words[i]
		if key == "discard" || key == "reject" || i+1 >= len(c.words) {
			w.staticAttr(sr, key, "")
			i++
			continue
		}
		w.staticAttr(sr, key, c.words[i+1])
		i += 2
	}
	for _, a := range c.children {
		w.staticAttr(sr, a.word(0), a.word(1))
	}
	w.cfg.StaticRoutes = append(w.cfg.StaticRoutes, sr)
}

func (w *walker) staticAttr(sr *ir.StaticRoute, key, val string) {
	switch key {
	case "next-hop":
		if a, err := netaddr.ParseAddr(val); err == nil {
			sr.NextHop = a
			sr.HasNextHop = true
		} else {
			sr.Interface = val
		}
	case "preference":
		if n, err := strconv.Atoi(val); err == nil {
			sr.AdminDistance = n
		}
	case "tag":
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			sr.Tag, sr.HasTag = n, true
		}
	case "discard", "reject":
		sr.Interface = key
	}
}

func (w *walker) bgp(s *stmt) {
	if w.cfg.BGP == nil {
		w.cfg.BGP = ir.NewBGPConfig(0)
	}
	b := w.cfg.BGP
	b.Span.Extend(w.span(s))
	for _, g := range s.children {
		switch g.word(0) {
		case "group":
			w.bgpGroup(g, b)
		case "export", "import":
			// process-level policies apply to all neighbors; modeled by
			// appending to each group neighbor as it is parsed — JunOS
			// precedence (neighbor > group > process) simplified to
			// "most specific wins", so we only record them when a
			// neighbor has none of its own. Handled in bgpGroup.
		default:
			w.unrecognized(g)
		}
	}
}

func (w *walker) bgpGroup(g *stmt, b *ir.BGPConfig) {
	var groupImport, groupExport []string
	var groupPeerAS int64
	groupRR := false
	ibgp := false
	for _, c := range g.children {
		switch c.word(0) {
		case "type":
			ibgp = c.word(1) == "internal"
		case "import":
			groupImport = c.words[1:]
		case "export":
			groupExport = c.words[1:]
		case "peer-as":
			groupPeerAS, _ = strconv.ParseInt(c.word(1), 10, 64)
		case "cluster":
			groupRR = true
		case "neighbor":
			// handled below
		default:
			w.unrecognized(c)
		}
	}
	for _, c := range g.children {
		if c.word(0) != "neighbor" {
			continue
		}
		addr, err := netaddr.ParseAddr(c.word(1))
		if err != nil {
			w.unrecognized(c)
			continue
		}
		n := b.Neighbors[addr.String()]
		if n == nil {
			n = &ir.BGPNeighbor{Addr: addr}
			b.Neighbors[addr.String()] = n
		}
		n.Span.Extend(w.span(c))
		n.RemoteAS = groupPeerAS
		if ibgp && n.RemoteAS == 0 {
			n.RemoteAS = b.ASN
		}
		n.ImportPolicies = append([]string{}, groupImport...)
		n.ExportPolicies = append([]string{}, groupExport...)
		n.RouteReflectorClient = groupRR
		// JunOS propagates communities by default.
		n.SendCommunity = true
		for _, a := range c.children {
			switch a.word(0) {
			case "peer-as":
				n.RemoteAS, _ = strconv.ParseInt(a.word(1), 10, 64)
			case "description":
				n.Description = strings.Join(a.words[1:], " ")
			case "import":
				n.ImportPolicies = append([]string{}, a.words[1:]...)
			case "export":
				n.ExportPolicies = append([]string{}, a.words[1:]...)
			case "cluster":
				n.RouteReflectorClient = true
			case "multihop":
				n.EBGPMultihop = true
			case "shutdown":
				n.Shutdown = true
			case "local-as":
				n.LocalAS, _ = strconv.ParseInt(a.word(1), 10, 64)
			default:
				w.unrecognized(a)
			}
		}
	}
}

func (w *walker) ospf(s *stmt) {
	if w.cfg.OSPF == nil {
		w.cfg.OSPF = ir.NewOSPFConfig(0)
	}
	o := w.cfg.OSPF
	o.Span.Extend(w.span(s))
	for _, c := range s.children {
		switch c.word(0) {
		case "area":
			area := parseAreaID(c.word(1))
			for _, ic := range c.children {
				if ic.word(0) != "interface" {
					w.unrecognized(ic)
					continue
				}
				oi := &ir.OSPFInterface{
					Name: ic.word(1),
					Area: area,
					Cost: 1,
					Span: w.span(ic),
				}
				for _, a := range ic.children {
					switch a.word(0) {
					case "metric":
						oi.Cost, _ = strconv.Atoi(a.word(1))
					case "passive":
						oi.Passive = true
					case "hello-interval":
						oi.HelloInterval, _ = strconv.Atoi(a.word(1))
					case "dead-interval":
						oi.DeadInterval, _ = strconv.Atoi(a.word(1))
					case "interface-type":
						oi.NetworkType = a.word(1)
					default:
						w.unrecognized(a)
					}
				}
				// Attach the interface subnet if we know it.
				for _, ifc := range w.cfg.Interfaces {
					if ifc.Name == oi.Name && ifc.HasAddress {
						oi.Subnet = ifc.Subnet
					}
				}
				o.Interfaces[oi.Name] = oi
			}
		case "export":
			// OSPF export policy = redistribution into OSPF.
			for _, name := range c.words[1:] {
				o.Redistribute = append(o.Redistribute, ir.Redistribution{
					From:     ir.ProtoBGP, // source protocols constrained inside the policy
					RouteMap: name,
					Span:     w.span(c),
				})
			}
		default:
			w.unrecognized(c)
		}
	}
}

// parseAreaID parses "0", "0.0.0.0", or "0.0.0.5" area identifiers.
func parseAreaID(s string) int64 {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	if a, err := netaddr.ParseAddr(s); err == nil {
		return int64(a)
	}
	return 0
}

package cisco

import (
	"strconv"

	"repro/internal/ir"
	"repro/internal/netaddr"
)

func portByName(s string) (uint16, bool) {
	return ir.PortByName(s)
}

// parseNumberedACL handles top-level "access-list N ..." lines: numbers
// 1-99 are standard (source-only), 100-199 extended.
func (p *parser) parseNumberedACL(line string, f []string) {
	if len(f) < 3 {
		p.unrecognized(line)
		return
	}
	num, err := strconv.Atoi(f[1])
	if err != nil {
		p.unrecognized(line)
		return
	}
	acl := p.getACL(f[1])
	acl.Span.Extend(p.span(line))
	var rule *ir.ACLLine
	if num < 100 {
		rule = p.parseStandardACLRule(f[2:])
	} else {
		rule = p.parseExtendedACLRule(f[2:])
	}
	if rule == nil {
		p.unrecognized(line)
		return
	}
	rule.Span = p.span(line)
	acl.Lines = append(acl.Lines, rule)
}

// parseACLBodyLine handles lines inside "ip access-list extended NAME":
// "[seq] permit|deny PROTO SRC [ports] DST [ports] [flags]".
func (p *parser) parseACLBodyLine(line string, f []string) {
	if p.curACL == nil {
		p.unrecognized(line)
		return
	}
	seq := 0
	if n, err := strconv.Atoi(f[0]); err == nil {
		seq = n
		f = f[1:]
	}
	if len(f) == 0 {
		p.unrecognized(line)
		return
	}
	if f[0] == "remark" {
		return
	}
	rule := p.parseExtendedACLRule(f)
	if rule == nil {
		// Standard named ACLs share the body syntax "permit SRC [WILD]".
		rule = p.parseStandardACLRule(f)
	}
	if rule == nil {
		p.unrecognized(line)
		return
	}
	rule.Seq = seq
	rule.Span = p.span(line)
	p.curACL.Lines = append(p.curACL.Lines, rule)
	p.curACL.Span.Extend(rule.Span)
}

// parseStandardACLRule parses "permit|deny SRC [WILD]" (standard lists
// match on source address only).
func (p *parser) parseStandardACLRule(f []string) *ir.ACLLine {
	if len(f) < 2 {
		return nil
	}
	rule := ir.NewACLLine(ir.Deny)
	switch f[0] {
	case "permit":
		rule.Action = ir.Permit
	case "deny":
		rule.Action = ir.Deny
	default:
		return nil
	}
	src, rest, ok := parseAddrSpec(f[1:])
	if !ok || len(rest) > 1 { // allow a trailing "log"
		return nil
	}
	rule.Src = src
	return rule
}

// parseExtendedACLRule parses "permit|deny PROTO SRC [ports] DST [ports]
// [established] [icmp-type]".
func (p *parser) parseExtendedACLRule(f []string) *ir.ACLLine {
	if len(f) < 2 {
		return nil
	}
	rule := ir.NewACLLine(ir.Deny)
	switch f[0] {
	case "permit":
		rule.Action = ir.Permit
	case "deny":
		rule.Action = ir.Deny
	default:
		return nil
	}
	proto, ok := ir.ProtocolByName(f[1])
	if !ok {
		if n, err := strconv.Atoi(f[1]); err == nil && n >= 0 && n <= 255 {
			proto = ir.ProtoNumber(uint8(n))
		} else {
			return nil
		}
	}
	rule.Protocol = proto
	rest := f[2:]

	src, rest, ok := parseAddrSpec(rest)
	if !ok {
		return nil
	}
	rule.Src = src
	ports, rest := parsePortSpec(rest)
	rule.SrcPorts = ports

	dst, rest, ok := parseAddrSpec(rest)
	if !ok {
		return nil
	}
	rule.Dst = dst
	ports, rest = parsePortSpec(rest)
	rule.DstPorts = ports

	for len(rest) > 0 {
		switch rest[0] {
		case "established":
			rule.Established = true
			rest = rest[1:]
		case "echo":
			rule.ICMPType = 8
			rest = rest[1:]
		case "echo-reply":
			rule.ICMPType = 0
			rest = rest[1:]
		case "log", "log-input":
			rest = rest[1:]
		default:
			if rule.Protocol.Matches(ir.ProtoNumICMP) && !rule.Protocol.Any {
				if n, err := strconv.Atoi(rest[0]); err == nil && n >= 0 && n <= 255 {
					rule.ICMPType = n
					rest = rest[1:]
					continue
				}
			}
			return nil
		}
	}
	return rule
}

// parseAddrSpec consumes "any" | "host A" | "A WILD" | "A.B.C.D/len" from
// the front of f.
func parseAddrSpec(f []string) ([]netaddr.Wildcard, []string, bool) {
	if len(f) == 0 {
		return nil, nil, false
	}
	switch f[0] {
	case "any", "any4":
		return nil, f[1:], true // nil means any
	case "host":
		if len(f) < 2 {
			return nil, nil, false
		}
		a, err := netaddr.ParseAddr(f[1])
		if err != nil {
			return nil, nil, false
		}
		return []netaddr.Wildcard{{Addr: a, Mask: 0}}, f[2:], true
	}
	// Prefix notation (IOS XR style).
	if pfx, err := netaddr.ParsePrefix(f[0]); err == nil && indexByte(f[0], '/') {
		return []netaddr.Wildcard{netaddr.WildcardFromPrefix(pfx)}, f[1:], true
	}
	a, err := netaddr.ParseAddr(f[0])
	if err != nil {
		return nil, nil, false
	}
	if len(f) >= 2 {
		if w, err := netaddr.ParseAddr(f[1]); err == nil {
			return []netaddr.Wildcard{{Addr: a, Mask: w}}, f[2:], true
		}
	}
	// Bare address: treat as host.
	return []netaddr.Wildcard{{Addr: a, Mask: 0}}, f[1:], true
}

func indexByte(s string, c byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return true
		}
	}
	return false
}

// parsePortSpec consumes an optional "eq N" | "range A B" | "gt N" |
// "lt N" from the front of f.
func parsePortSpec(f []string) ([]netaddr.PortRange, []string) {
	if len(f) == 0 {
		return nil, f
	}
	switch f[0] {
	case "eq":
		if len(f) >= 2 {
			if port, ok := portByName(f[1]); ok {
				// eq accepts multiple ports.
				ranges := []netaddr.PortRange{netaddr.SinglePort(port)}
				rest := f[2:]
				for len(rest) > 0 {
					p, ok := portByName(rest[0])
					if !ok {
						break
					}
					ranges = append(ranges, netaddr.SinglePort(p))
					rest = rest[1:]
				}
				return ranges, rest
			}
		}
	case "range":
		if len(f) >= 3 {
			lo, ok1 := portByName(f[1])
			hi, ok2 := portByName(f[2])
			if ok1 && ok2 && lo <= hi {
				return []netaddr.PortRange{{Lo: lo, Hi: hi}}, f[3:]
			}
		}
	case "gt":
		if len(f) >= 2 {
			if port, ok := portByName(f[1]); ok && port < 65535 {
				return []netaddr.PortRange{{Lo: port + 1, Hi: 65535}}, f[2:]
			}
		}
	case "lt":
		if len(f) >= 2 {
			if port, ok := portByName(f[1]); ok && port > 0 {
				return []netaddr.PortRange{{Lo: 0, Hi: port - 1}}, f[2:]
			}
		}
	}
	return nil, f
}

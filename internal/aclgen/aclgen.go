// Package aclgen generates large, nearly-equivalent ACL pairs in Cisco
// and Juniper syntax — the role Capirca plays in the paper's §5.4
// scalability experiment: "randomly generate nearly equivalent ACLs for
// Cisco and Juniper configurations", with a configurable rule count and a
// configurable number of injected differences.
package aclgen

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/netaddr"
)

// Params controls generation. The same Seed always yields the same pair.
type Params struct {
	Seed        uint64
	Rules       int
	Pools       int // number of distinct address pools (Capirca "networks")
	Differences int // differences injected into the second copy
}

// ParamsFromBytes derives bounded generation parameters from raw fuzz
// input (see policygen.ParamsFromBytes); rule and pool counts stay small
// so fuzzing iterates quickly.
func ParamsFromBytes(data []byte) Params {
	at := func(i int) uint64 {
		if i < len(data) {
			return uint64(data[i])
		}
		return 0
	}
	seed := uint64(0)
	for i := 0; i < 8; i++ {
		seed = seed<<8 | at(i)
	}
	return Params{
		Seed:        seed,
		Rules:       1 + int(at(8)%20),
		Pools:       1 + int(at(9)%8),
		Differences: int(at(10) % 5),
	}
}

// Pair is a generated ACL pair plus its vendor-syntax renderings.
type Pair struct {
	Name        string
	Cisco       *ir.ACL
	Juniper     *ir.ACL
	CiscoText   string
	JuniperText string
	// Injected describes each difference planted into the Juniper copy.
	Injected []string
}

type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state >> 33
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

var servicePorts = []uint16{22, 25, 53, 80, 123, 179, 443, 514, 3306, 8080}

var protocols = []ir.ProtocolMatch{
	ir.ProtoNumber(ir.ProtoNumTCP),
	ir.ProtoNumber(ir.ProtoNumTCP),
	ir.ProtoNumber(ir.ProtoNumUDP),
	ir.ProtoNumber(ir.ProtoNumICMP),
	ir.AnyProtocol,
}

// Generate builds the pair deterministically from the parameters.
func Generate(p Params) *Pair {
	if p.Rules <= 0 {
		p.Rules = 100
	}
	if p.Pools <= 0 {
		p.Pools = 32
	}
	r := &rng{state: p.Seed ^ 0x9e3779b97f4a7c15}

	// Address pools: contiguous prefixes of varying length, so the
	// generated rules reuse a bounded vocabulary the way Capirca network
	// definitions do.
	pools := make([]netaddr.Prefix, p.Pools)
	for i := range pools {
		length := 8 + r.intn(17) // /8 .. /24
		addr := netaddr.Addr(uint32(10)<<24 | uint32(r.next())&0x00ffffff<<0 | uint32(i)<<8)
		pools[i] = netaddr.NewPrefix(addr, uint8(length))
	}

	// Each rule guards its own destination /24 (Capirca terms have
	// distinct destinations/services), so every rule is reachable and an
	// injected difference is always behavioral. Sources reuse the pools.
	makeLine := func(i int) *ir.ACLLine {
		l := ir.NewACLLine(ir.Permit)
		if r.intn(5) == 0 {
			l.Action = ir.Deny
		}
		l.Protocol = protocols[r.intn(len(protocols))]
		if r.intn(3) != 0 {
			l.Src = []netaddr.Wildcard{netaddr.WildcardFromPrefix(pools[r.intn(len(pools))])}
		}
		dst := netaddr.NewPrefix(netaddr.Addr(uint32(10)<<24|uint32(i&0xffff)<<8), 24)
		l.Dst = []netaddr.Wildcard{netaddr.WildcardFromPrefix(dst)}
		if n := l.Protocol.Number; !l.Protocol.Any && (n == ir.ProtoNumTCP || n == ir.ProtoNumUDP) {
			switch r.intn(3) {
			case 0:
				l.DstPorts = []netaddr.PortRange{netaddr.SinglePort(servicePorts[r.intn(len(servicePorts))])}
			case 1:
				lo := servicePorts[r.intn(len(servicePorts))]
				l.DstPorts = []netaddr.PortRange{{Lo: lo, Hi: lo + uint16(r.intn(100))}}
			}
		}
		return l
	}

	lines1 := make([]*ir.ACLLine, p.Rules)
	for i := range lines1 {
		lines1[i] = makeLine(i)
	}
	// Final catch-all so both ACLs share a default.
	catchAll := ir.NewACLLine(ir.Deny)
	lines1 = append(lines1, catchAll)

	// Copy, then inject differences.
	lines2 := make([]*ir.ACLLine, len(lines1))
	for i, l := range lines1 {
		cp := *l
		lines2[i] = &cp
	}
	var injected []string
	for d := 0; d < p.Differences && len(lines2) > 1; d++ {
		i := r.intn(len(lines2) - 1) // never the catch-all
		switch r.intn(3) {
		case 0: // flip action
			cp := *lines2[i]
			if cp.Action == ir.Permit {
				cp.Action = ir.Deny
			} else {
				cp.Action = ir.Permit
			}
			lines2[i] = &cp
			injected = append(injected, fmt.Sprintf("rule %d: flipped action", i))
		case 1: // change/add a destination port
			cp := *lines2[i]
			if !cp.Protocol.Any && cp.Protocol.Number == ir.ProtoNumICMP {
				cp.Protocol = ir.ProtoNumber(ir.ProtoNumTCP)
				injected = append(injected, fmt.Sprintf("rule %d: protocol icmp→tcp", i))
			} else {
				port := servicePorts[r.intn(len(servicePorts))]
				cp.DstPorts = append(append([]netaddr.PortRange{}, cp.DstPorts...), netaddr.SinglePort(port))
				injected = append(injected, fmt.Sprintf("rule %d: extra port %d", i, port))
			}
			lines2[i] = &cp
		default: // drop the rule
			lines2 = append(lines2[:i], lines2[i+1:]...)
			injected = append(injected, fmt.Sprintf("rule %d: dropped", i))
		}
	}

	name := fmt.Sprintf("GEN_%d", p.Seed)
	pair := &Pair{
		Name:     name,
		Cisco:    &ir.ACL{Name: name, Lines: lines1},
		Juniper:  &ir.ACL{Name: name, Lines: lines2},
		Injected: injected,
	}
	pair.CiscoText = RenderCisco(pair.Cisco)
	pair.JuniperText = RenderJuniper(pair.Juniper)
	return pair
}

// Mirror returns the pair with every line's source and destination
// addresses swapped (ports stay put), re-rendered in both syntaxes: the
// source-keyed shape, where each rule guards its own source /24 and the
// destinations reuse the pools. The differences are the same rules.
func (p *Pair) Mirror() *Pair {
	mirror := func(acl *ir.ACL) *ir.ACL {
		out := &ir.ACL{Name: acl.Name, Lines: make([]*ir.ACLLine, len(acl.Lines))}
		for i, l := range acl.Lines {
			cp := *l
			cp.Src, cp.Dst = l.Dst, l.Src
			out.Lines[i] = &cp
		}
		return out
	}
	m := &Pair{
		Name:     p.Name,
		Cisco:    mirror(p.Cisco),
		Juniper:  mirror(p.Juniper),
		Injected: p.Injected,
	}
	m.CiscoText = RenderCisco(m.Cisco)
	m.JuniperText = RenderJuniper(m.Juniper)
	return m
}

// RenderCisco unparses an ACL into IOS "ip access-list extended" syntax.
func RenderCisco(acl *ir.ACL) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ip access-list extended %s\n", acl.Name)
	for _, l := range acl.Lines {
		b.WriteString(" ")
		b.WriteString(l.Action.String())
		b.WriteString(" ")
		b.WriteString(ciscoProto(l.Protocol))
		b.WriteString(" ")
		b.WriteString(ciscoAddr(l.Src))
		b.WriteString(ciscoPorts(l.SrcPorts))
		b.WriteString(" ")
		b.WriteString(ciscoAddr(l.Dst))
		b.WriteString(ciscoPorts(l.DstPorts))
		if l.Established {
			b.WriteString(" established")
		}
		if l.ICMPType >= 0 {
			fmt.Fprintf(&b, " %d", l.ICMPType)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func ciscoProto(p ir.ProtocolMatch) string {
	if p.Any {
		return "ip"
	}
	return p.String()
}

func ciscoAddr(ws []netaddr.Wildcard) string {
	if len(ws) == 0 {
		return "any"
	}
	w := ws[0]
	if w.Mask == 0 {
		return "host " + w.Addr.String()
	}
	return w.Addr.String() + " " + w.Mask.String()
}

func ciscoPorts(ps []netaddr.PortRange) string {
	if len(ps) == 0 {
		return ""
	}
	if len(ps) == 1 && ps[0].Lo == ps[0].Hi {
		return fmt.Sprintf(" eq %d", ps[0].Lo)
	}
	if len(ps) == 1 {
		return fmt.Sprintf(" range %d %d", ps[0].Lo, ps[0].Hi)
	}
	// Multiple singleton ports render as an eq list.
	out := " eq"
	for _, p := range ps {
		if p.Lo != p.Hi {
			return fmt.Sprintf(" range %d %d", p.Lo, p.Hi)
		}
		out += fmt.Sprintf(" %d", p.Lo)
	}
	return out
}

// RenderJuniper unparses an ACL into a JunOS firewall filter.
func RenderJuniper(acl *ir.ACL) string {
	var b strings.Builder
	b.WriteString("firewall {\n    family inet {\n")
	fmt.Fprintf(&b, "        filter %s {\n", acl.Name)
	for i, l := range acl.Lines {
		fmt.Fprintf(&b, "            term t%d {\n", i)
		var from []string
		if !l.Protocol.Any {
			from = append(from, fmt.Sprintf("protocol %s;", l.Protocol))
		}
		if len(l.Src) > 0 {
			from = append(from, "source-address { "+juniperAddrs(l.Src)+" }")
		}
		if len(l.Dst) > 0 {
			from = append(from, "destination-address { "+juniperAddrs(l.Dst)+" }")
		}
		if len(l.SrcPorts) > 0 {
			from = append(from, "source-port "+juniperPorts(l.SrcPorts)+";")
		}
		if len(l.DstPorts) > 0 {
			from = append(from, "destination-port "+juniperPorts(l.DstPorts)+";")
		}
		if l.Established {
			from = append(from, "tcp-established;")
		}
		if l.ICMPType >= 0 {
			from = append(from, fmt.Sprintf("icmp-type %d;", l.ICMPType))
		}
		if len(from) > 0 {
			b.WriteString("                from {\n")
			for _, f := range from {
				b.WriteString("                    " + f + "\n")
			}
			b.WriteString("                }\n")
		}
		if l.Action == ir.Permit {
			b.WriteString("                then accept;\n")
		} else {
			b.WriteString("                then discard;\n")
		}
		b.WriteString("            }\n")
	}
	b.WriteString("        }\n    }\n}\n")
	return b.String()
}

func juniperAddrs(ws []netaddr.Wildcard) string {
	var parts []string
	for _, w := range ws {
		if p, ok := w.AsPrefix(); ok {
			parts = append(parts, p.String()+";")
		}
	}
	return strings.Join(parts, " ")
}

func juniperPorts(ps []netaddr.PortRange) string {
	var parts []string
	for _, p := range ps {
		if p.Lo == p.Hi {
			parts = append(parts, fmt.Sprintf("%d", p.Lo))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", p.Lo, p.Hi))
		}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "[ " + strings.Join(parts, " ") + " ]"
}

package ir

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/netaddr"
)

// IP protocol numbers the differ knows by name.
const (
	ProtoNumICMP = 1
	ProtoNumTCP  = 6
	ProtoNumUDP  = 17
	ProtoNumGRE  = 47
	ProtoNumESP  = 50
	ProtoNumAH   = 51
	ProtoNumOSPF = 89
)

// ProtocolMatch matches the IP protocol field of a packet. The zero value
// matches any protocol.
type ProtocolMatch struct {
	Any    bool
	Number uint8
}

// AnyProtocol matches every IP protocol.
var AnyProtocol = ProtocolMatch{Any: true}

// ProtoNumber matches exactly one IP protocol number.
func ProtoNumber(n uint8) ProtocolMatch { return ProtocolMatch{Number: n} }

// Matches reports whether protocol number n satisfies the match.
func (m ProtocolMatch) Matches(n uint8) bool { return m.Any || m.Number == n }

func (m ProtocolMatch) String() string {
	if m.Any {
		return "ip"
	}
	switch m.Number {
	case ProtoNumICMP:
		return "icmp"
	case ProtoNumTCP:
		return "tcp"
	case ProtoNumUDP:
		return "udp"
	case ProtoNumGRE:
		return "gre"
	case ProtoNumESP:
		return "esp"
	case ProtoNumAH:
		return "ah"
	case ProtoNumOSPF:
		return "ospf"
	}
	return fmt.Sprintf("%d", m.Number)
}

// ProtocolByName resolves the common IOS/JunOS protocol keywords.
func ProtocolByName(name string) (ProtocolMatch, bool) {
	switch strings.ToLower(name) {
	case "ip", "ipv4", "any", "inet":
		return AnyProtocol, true
	case "icmp":
		return ProtoNumber(ProtoNumICMP), true
	case "tcp":
		return ProtoNumber(ProtoNumTCP), true
	case "udp":
		return ProtoNumber(ProtoNumUDP), true
	case "gre":
		return ProtoNumber(ProtoNumGRE), true
	case "esp":
		return ProtoNumber(ProtoNumESP), true
	case "ah", "ahp":
		return ProtoNumber(ProtoNumAH), true
	case "ospf":
		return ProtoNumber(ProtoNumOSPF), true
	}
	return ProtocolMatch{}, false
}

// wellKnownPorts resolves the port keywords shared by the IOS and JunOS
// dialects.
var wellKnownPorts = map[string]uint16{
	"ftp-data": 20, "ftp": 21, "ssh": 22, "telnet": 23, "smtp": 25,
	"domain": 53, "dns": 53, "tftp": 69, "www": 80, "http": 80,
	"pop3": 110, "ntp": 123, "snmp": 161, "snmptrap": 162, "bgp": 179,
	"https": 443, "syslog": 514, "isakmp": 500, "ike": 500,
}

// PortByName resolves a numeric port or a well-known service keyword.
func PortByName(s string) (uint16, bool) {
	var n int
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			n = -1
			break
		}
		n = n*10 + int(s[i]-'0')
		if n > 65535 {
			n = -1
			break
		}
	}
	if n >= 0 && len(s) > 0 {
		return uint16(n), true
	}
	p, ok := wellKnownPorts[strings.ToLower(s)]
	return p, ok
}

// ACLLine is a single rule of an access control list. A packet matches the
// line when every populated field matches; the line's Action then applies.
type ACLLine struct {
	Seq    int
	Action Action

	Protocol ProtocolMatch
	// Src and Dst are sets of address matchers; a packet's address must
	// match at least one (Juniper address lists OR within a field).
	// An empty slice matches any address.
	Src []netaddr.Wildcard
	Dst []netaddr.Wildcard
	// Port constraints; empty means any port. Only meaningful for TCP/UDP.
	SrcPorts []netaddr.PortRange
	DstPorts []netaddr.PortRange
	// Established matches only TCP packets with ACK or RST set.
	Established bool
	// ICMPType restricts ICMP type; -1 means any.
	ICMPType int

	Span TextSpan
}

// NewACLLine returns a line that matches everything with the given action.
func NewACLLine(action Action) *ACLLine {
	return &ACLLine{Action: action, Protocol: AnyProtocol, ICMPType: -1}
}

// ACL is a named, ordered access list with first-match-wins semantics and
// an implicit deny at the end.
type ACL struct {
	Name  string
	Lines []*ACLLine
	Span  TextSpan
}

// SameLines reports whether a and b list the same match conditions and
// actions in the same order. Sequence numbers and source text are
// ignored: two ACLs with the same lines treat every packet alike, so a
// diff of them can be skipped without building any BDD.
func (a *ACL) SameLines(b *ACL) bool {
	return slices.EqualFunc(a.Lines, b.Lines, func(l, m *ACLLine) bool {
		return l.Action == m.Action && l.Protocol == m.Protocol &&
			slices.Equal(l.Src, m.Src) && slices.Equal(l.Dst, m.Dst) &&
			slices.Equal(l.SrcPorts, m.SrcPorts) && slices.Equal(l.DstPorts, m.DstPorts) &&
			l.Established == m.Established && l.ICMPType == m.ICMPType
	})
}

// Packet is a concrete packet header used by the concrete (non-symbolic)
// evaluation paths: testing, counterexample completion, and the SRP
// simulator's data plane.
type Packet struct {
	Src, Dst netaddr.Addr
	Protocol uint8
	SrcPort  uint16
	DstPort  uint16
	TCPAck   bool
	TCPRst   bool
	ICMPType uint8
}

// MatchesLine reports whether the packet satisfies every constraint of the
// ACL line.
func (l *ACLLine) MatchesPacket(p Packet) bool {
	if !l.Protocol.Matches(p.Protocol) {
		return false
	}
	if !wildcardAnyMatch(l.Src, p.Src) || !wildcardAnyMatch(l.Dst, p.Dst) {
		return false
	}
	if len(l.SrcPorts) > 0 && !portAnyMatch(l.SrcPorts, p.SrcPort) {
		return false
	}
	if len(l.DstPorts) > 0 && !portAnyMatch(l.DstPorts, p.DstPort) {
		return false
	}
	if l.Established {
		if p.Protocol != ProtoNumTCP || (!p.TCPAck && !p.TCPRst) {
			return false
		}
	}
	if l.ICMPType >= 0 {
		if p.Protocol != ProtoNumICMP || int(p.ICMPType) != l.ICMPType {
			return false
		}
	}
	return true
}

func wildcardAnyMatch(ws []netaddr.Wildcard, a netaddr.Addr) bool {
	if len(ws) == 0 {
		return true
	}
	for _, w := range ws {
		if w.Matches(a) {
			return true
		}
	}
	return false
}

func portAnyMatch(rs []netaddr.PortRange, p uint16) bool {
	for _, r := range rs {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Evaluate runs the packet through the ACL, returning the action and the
// matching line (nil for the implicit deny).
func (a *ACL) Evaluate(p Packet) (Action, *ACLLine) {
	for _, l := range a.Lines {
		if l.MatchesPacket(p) {
			return l.Action, l
		}
	}
	return Deny, nil
}

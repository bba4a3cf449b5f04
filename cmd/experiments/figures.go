package main

import (
	"fmt"
	"io"
	"time"

	"repro/campion"
	"repro/internal/aclgen"
	"repro/internal/cisco"
	"repro/internal/ddnf"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/minesweeper"
	"repro/internal/netaddr"
	"repro/internal/semdiff"
	"repro/internal/srp"
	"repro/internal/symbolic"
)

// figure2 prints the equivalence classes SemanticDiff's first step
// computes for the Figure 1(a) route map — the partition of Figure 2.
func figure2(*ctx) error {
	c, j, err := parseFigure1()
	if err != nil {
		return err
	}
	enc := symbolic.NewRouteEncoding(c, j)
	paths, err := enc.EnumeratePaths(c, c.RouteMaps["POL"])
	if err != nil {
		return err
	}
	fmt.Printf("paper: 3 classes (NETS′; ¬NETS′∧COMM′; remainder); measured: %d classes\n\n", len(paths))
	t := &tabular{}
	row(t, "Class", "Action", "Deciding clause", "Example route")
	for i, p := range paths {
		action := "REJECT"
		if p.Accept {
			action = "ACCEPT"
			if !p.Transform.IsIdentity() {
				action += " + " + p.Transform.String()
			}
		}
		clause := "(default)"
		if p.Terminal != nil {
			clause = fmt.Sprintf("seq %d", p.Terminal.Seq)
		}
		example := "-"
		if a := enc.F.AnySat(p.Guard); a != nil {
			example = enc.RouteFromAssignment(a).String()
		}
		row(t, fmt.Sprintf("λ%d", i+1), action, clause, example)
	}
	t.print()
	return nil
}

// figure3 reconstructs the paper's Figure 3: the seven-range DAG, and the
// GetMatch walk that represents S = (B−D) ∪ (C−F) ∪ G as {B−D, C−(F−G)},
// simplified to {B−D, C−F, G}.
func figure3(*ctx) error {
	ranges := map[string]netaddr.PrefixRange{
		"A": netaddr.Universe,
		"B": netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32"),
		"C": netaddr.MustParsePrefixRange("20.0.0.0/8 : 8-32"),
		"D": netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-32"),
		"E": netaddr.MustParsePrefixRange("10.2.0.0/16 : 16-32"),
		"F": netaddr.MustParsePrefixRange("20.1.0.0/16 : 16-32"),
		"G": netaddr.MustParsePrefixRange("20.1.1.0/24 : 24-32"),
	}
	nameOf := func(r netaddr.PrefixRange) string {
		for n, x := range ranges {
			if x.Equal(r) {
				return n
			}
		}
		return r.String()
	}
	d := ddnf.Build([]netaddr.PrefixRange{
		ranges["B"], ranges["C"], ranges["D"], ranges["E"], ranges["F"], ranges["G"],
	})
	fmt.Println("DAG edges (immediate containment):")
	for _, n := range d.Nodes {
		for _, c := range n.Children {
			fmt.Printf("  %s -> %s\n", nameOf(n.Range), nameOf(c.Range))
		}
	}
	enc := symbolic.NewRouteEncoding()
	ops := ddnf.SetOps{F: enc.F, RangeBDD: enc.PrefixRangeBDD, Universe: enc.WellFormed}
	s := enc.F.OrN(
		enc.F.Diff(enc.F.And(ops.RangeBDD(ranges["B"]), ops.Universe), ops.RangeBDD(ranges["D"])),
		enc.F.Diff(enc.F.And(ops.RangeBDD(ranges["C"]), ops.Universe), ops.RangeBDD(ranges["F"])),
		enc.F.And(ops.RangeBDD(ranges["G"]), ops.Universe),
	)
	terms, exact := d.GetMatch(ops, s)
	fmt.Printf("\nGetMatch(S = (B−D) ∪ (C−F) ∪ G):  exact=%v\n", exact)
	var render func(t ddnf.Term) string
	render = func(t ddnf.Term) string {
		out := nameOf(t.Include)
		for _, x := range t.Exclude {
			out += " − (" + render(x) + ")"
		}
		return out
	}
	for _, t := range terms {
		fmt.Printf("  raw term: %s\n", render(t))
	}
	fmt.Println("paper raw result:  B − D,  C − (F − G)")
	fmt.Println()
	for _, ft := range ddnf.Simplify(terms) {
		out := nameOf(ft.Include)
		for _, x := range ft.Exclude {
			out += " − " + nameOf(x)
		}
		fmt.Printf("  simplified: %s\n", out)
	}
	fmt.Println("paper simplified:  {B − D, C − F, G}")
	return nil
}

// figure4 prints the paper's Figure 4 flow — the routing and forwarding
// components of a router — annotated with the module that models each
// configurable (brown) node and the fixed (blue) processes this
// repository simulates rather than models.
func figure4(*ctx) error {
	t := &tabular{}
	row(t, "Figure 4 node", "Kind", "Module / check")
	row(t, "BGP import filters (per neighbor)", "configured", "internal/semdiff on route maps (SemanticDiff)")
	row(t, "BGP export filters (per neighbor)", "configured", "internal/semdiff on route maps (SemanticDiff)")
	row(t, "BGP properties (RR client, communities, ...)", "configured", "internal/structdiff (StructuralDiff)")
	row(t, "Route redistribution", "configured", "internal/semdiff via matched redistribution policies")
	row(t, "OSPF link costs / areas / timers", "configured", "internal/structdiff (StructuralDiff)")
	row(t, "Static routes", "configured", "internal/structdiff (StructuralDiff)")
	row(t, "Connected routes", "configured", "internal/structdiff (StructuralDiff)")
	row(t, "Administrative distances", "configured", "internal/structdiff (StructuralDiff)")
	row(t, "ACLs (data plane filters)", "configured", "internal/semdiff on ACLs (SemanticDiff)")
	row(t, "BGP decision process", "fixed", "not modeled (Theorem 3.3); simulated by internal/srp")
	row(t, "OSPF shortest paths", "fixed", "not modeled; simulated by internal/srp")
	row(t, "Route selection (RIB)", "fixed", "not modeled; simulated by internal/fib")
	row(t, "Longest-prefix forwarding (FIB)", "fixed", "not modeled; simulated by internal/fib")
	t.print()
	fmt.Println("\nCampion compares only the configured nodes; the fixed processes are")
	fmt.Println("identical standard algorithms on both routers, which is exactly why the")
	fmt.Println("modular check is protocol-free (Theorem 3.3, validated by -run theorem).")
	return nil
}

// theorem validates Theorem 3.3 on the Figure 1 policies: the correctly
// translated pair yields identical routing solutions; the buggy pair
// diverges exactly on the advertisements Campion localizes.
func theorem(*ctx) error {
	c, jBuggy, err := parseFigure1()
	if err != nil {
		return err
	}
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
        term rule2 { from community [ C10 C11 ]; then reject; }
        term rule3 { then { local-preference 30; accept; } }
    }
}
`
	jFixed, err := juniper.Parse("fixed.cfg", fixed)
	if err != nil {
		return err
	}

	adverts := []*ir.Route{
		ir.NewRoute(netaddr.MustParsePrefix("10.9.1.0/24")),
		ir.NewRoute(netaddr.MustParsePrefix("192.0.2.0/24")),
		ir.NewRoute(netaddr.MustParsePrefix("10.9.0.0/16")),
		ir.NewRoute(netaddr.MustParsePrefix("203.0.113.0/24")),
	}
	adverts[3].Communities["10:10"] = true
	for _, r := range adverts {
		r.ASPath = []int64{65002}
	}
	network := func(mid *ir.Config) *srp.BGPNetwork {
		return &srp.BGPNetwork{
			Nodes: 3,
			Sessions: []srp.BGPSession{
				{Edge: srp.Edge{From: 0, To: 1}, FromASN: 65002, ToASN: 65001,
					ImportConfig: mid, Import: []string{"POL"}},
				{Edge: srp.Edge{From: 1, To: 2}, FromASN: 65001, ToASN: 65001},
			},
		}
	}
	solve := func(mid *ir.Config) (*srp.Solution, error) {
		sol, ok := network(mid).NewBGPProblem(0, adverts).Solve()
		if !ok {
			return nil, fmt.Errorf("no convergence")
		}
		return sol, nil
	}
	cSol, err := solve(c)
	if err != nil {
		return err
	}
	fixedSol, err := solve(jFixed)
	if err != nil {
		return err
	}
	buggySol, err := solve(jBuggy)
	if err != nil {
		return err
	}
	t := &tabular{}
	row(t, "Network pair", "Campion diffs", "Same routing solutions?")
	row(t, "cisco vs fixed juniper", "0", fmt.Sprint(cSol.Equal(fixedSol)))
	row(t, "cisco vs buggy juniper (Figure 1)", "2", fmt.Sprint(cSol.Equal(buggySol)))
	t.print()
	fmt.Println("\nper-advertisement routes at the observer node:")
	t2 := &tabular{}
	row(t2, "Advertisement", "cisco network", "buggy juniper network")
	for _, r := range adverts {
		has := func(s *srp.Solution) string {
			if s.Selected[2][r.Prefix] != nil {
				return "learned"
			}
			return "dropped"
		}
		label := r.Prefix.String()
		if len(r.CommunityStrings()) > 0 {
			label += " (comm " + r.CommunityStrings()[0] + ")"
		}
		row(t2, label, has(cSol), has(buggySol))
	}
	t2.print()
	return nil
}

// fragility reruns the §2 experiment: how many concrete counterexamples
// the iterated baseline needs before every prefix range relevant to
// Difference 1 is witnessed, for the original config and for the "le 31"
// variant.
func fragility(*ctx) error {
	run := func(ciscoText string) (int, bool, error) {
		c, err := cisco.Parse("c.cfg", ciscoText)
		if err != nil {
			return 0, false, err
		}
		j, err := juniper.Parse("j.cfg", figure1b)
		if err != nil {
			return 0, false, err
		}
		ch, err := minesweeper.NewRouteMapChecker(c, c.RouteMaps["POL"], j, j.RouteMaps["POL"])
		if err != nil {
			return 0, false, err
		}
		targets := []func(*ir.Route) bool{
			func(r *ir.Route) bool {
				return netaddr.MustParsePrefixRange("10.9.0.0/16 : 17-32").ContainsPrefix(r.Prefix)
			},
			func(r *ir.Route) bool {
				return netaddr.MustParsePrefixRange("10.100.0.0/16 : 17-32").ContainsPrefix(r.Prefix)
			},
		}
		n, covered := ch.CountUntilCovered(targets, 2000)
		return n, covered, nil
	}
	n1, ok1, err := run(figure1a)
	if err != nil {
		return err
	}
	variant := figure1a
	variant = replaceOnce(variant, "ip prefix-list NETS permit 10.100.0.0/16 le 32",
		"ip prefix-list NETS permit 10.100.0.0/16 le 31")
	n2, ok2, err := run(variant)
	if err != nil {
		return err
	}
	t := &tabular{}
	row(t, "Configuration", "Paper", "Measured", "Covered")
	row(t, "Figure 1 (le 32)", "7", fmt.Sprint(n1), fmt.Sprint(ok1))
	row(t, "le 32 -> le 31 variant", "27", fmt.Sprint(n2), fmt.Sprint(ok2))
	t.print()
	fmt.Println("\nCampion reports both differences completely in one run (2 localized classes).")
	return nil
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}

// scalabilityEndToEnd times one ACL pair the way the CLI runs it: both
// texts parsed, the full Diff (semantic check, header and text
// localization) with default options, and the report rendered.
func scalabilityEndToEnd(pair *aclgen.Pair) (time.Duration, error) {
	start := time.Now()
	c1, err := campion.ParseAs(campion.VendorCisco, "c.cfg", pair.CiscoText)
	if err != nil {
		return 0, err
	}
	c2, err := campion.ParseAs(campion.VendorJuniper, "j.cfg", pair.JuniperText)
	if err != nil {
		return 0, err
	}
	rep, err := campion.Diff(c1, c2, campion.Options{})
	if err != nil {
		return 0, err
	}
	if err := campion.Write(io.Discard, rep); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// scalability reruns §5.4: SemanticDiff over generated nearly-equivalent
// ACL pairs with 10 injected differences, at increasing rule counts,
// reporting parse, diff and end-to-end times.
func scalability(c *ctx) error {
	sizes := []int{100, 1000, 10000}
	if c.quick {
		sizes = []int{100, 1000}
	}
	t := &tabular{}
	row(t, "Rules", "Paper diff time", "Measured diff", "Measured parse", "Measured end to end", "Diff classes")
	paper := map[int]string{100: "-", 1000: "< 1 s", 10000: "~15 s (2.2 GHz)"}
	for _, n := range sizes {
		pair := aclgen.Generate(aclgen.Params{Seed: 1, Rules: n, Differences: 10})

		parseStart := time.Now()
		ccfg, err := cisco.Parse("c.cfg", pair.CiscoText)
		if err != nil {
			return err
		}
		jcfg, err := juniper.Parse("j.cfg", pair.JuniperText)
		if err != nil {
			return err
		}
		parseTime := time.Since(parseStart)

		diffStart := time.Now()
		acl1, acl2 := ccfg.ACLs[pair.Name], jcfg.ACLs[pair.Name]
		enc := symbolic.NewPacketEncoding(acl1, acl2)
		diffs := semdiff.DiffACLs(enc, acl1, acl2)
		diffTime := time.Since(diffStart)

		e2eTime, err := scalabilityEndToEnd(pair)
		if err != nil {
			return err
		}

		row(t, fmt.Sprint(n), paper[n],
			diffTime.Round(time.Millisecond).String(),
			parseTime.Round(time.Millisecond).String(),
			e2eTime.Round(time.Millisecond).String(),
			fmt.Sprint(len(diffs)))
	}
	t.print()
	fmt.Println("\n(10 injected differences per pair, as in the paper; \"diff\" times the")
	fmt.Println("BDD kernel alone on the pair-ordered packet encoding, \"end to end\" times")
	fmt.Println("text → campion.Parse → campion.Diff → rendered report with the CLI's")
	fmt.Println("defaults, header localization included)")
	return nil
}

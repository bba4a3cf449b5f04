package difftest

import (
	"repro/internal/bdd"
	"repro/internal/ir"
	"repro/internal/oracle"
	"repro/internal/semdiff"
	"repro/internal/symbolic"
)

// CheckACLs cross-checks the symbolic diff of one ACL pair against the
// concrete oracle. The packet encoding is an exact bit-blast (no
// atomization), so all properties are strict: every region witness must
// disagree concretely, and sampled packets must disagree exactly when
// they fall inside the reported union. The encoding is ordered for the
// pair, as the engine's is.
func CheckACLs(acl1, acl2 *ir.ACL, pair string, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{maxViolations: opts.MaxViolations, ACLPairs: 1}
	rng := opts.rng()

	enc := symbolic.NewPacketEncoding(acl1, acl2)
	diffs := semdiff.DiffACLs(enc, acl1, acl2)
	union := semdiff.UnionACLInputs(enc, diffs)

	// The union of regions must be exactly the symmetric difference of
	// the accept sets — the regions partition it, no more, no less.
	if xor := enc.F.Xor(enc.AcceptSet(acl1), enc.AcceptSet(acl2)); union != xor {
		rep.violate("completeness", pair, "union of regions differs from accept-set xor")
	}
	if rev := semdiff.UnionACLInputs(enc, semdiff.DiffACLs(enc, acl2, acl1)); rev != union {
		rep.violate("asymmetry", pair, "diff(A,B) inputs != diff(B,A) inputs")
	}

	coin := func() bool { return rng.Intn(2) == 1 }
	for _, d := range diffs {
		rep.Regions++
		a := enc.F.AnySat(d.Inputs)
		if a == nil {
			rep.violate("witness-unsound", pair, "region has empty input set")
			continue
		}
		checkACLWitness(rep, d, enc.PacketFromAssignment(a), acl1, acl2, pair)
		for i := 0; i < opts.WitnessDraws; i++ {
			ra := enc.F.RandSat(d.Inputs, coin)
			if ra == nil {
				break
			}
			checkACLWitness(rep, d, enc.PacketFromAssignment(ra), acl1, acl2, pair)
		}
	}

	sampler := newPacketSampler(rng, acl1, acl2)
	for i := 0; i < opts.Samples; i++ {
		p := sampler.sample()
		rep.SampleChecks++
		d1 := evalACLBothWays(rep, acl1, p, pair, "side 1")
		d2 := evalACLBothWays(rep, acl2, p, pair, "side 2")
		disagree := d1.Action != d2.Action
		if disagree {
			rep.Disagreements++
		}
		inUnion := enc.F.And(union, enc.PacketCube(p)) != bdd.False
		if disagree != inUnion {
			rep.violate("completeness", pair,
				"packet %+v: oracle disagreement=%v but in-union=%v\nside 1 trace:\n%s\nside 2 trace:\n%s",
				p, disagree, inUnion, indent(d1.String()), indent(d2.String()))
		}
	}
	return rep
}

// SelfCheckACL asserts diff(A,A) = ∅.
func SelfCheckACL(acl *ir.ACL, pair string, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{maxViolations: opts.MaxViolations}
	enc := symbolic.NewPacketEncoding(acl)
	if diffs := semdiff.DiffACLs(enc, acl, acl); len(diffs) != 0 {
		rep.violate("self-diff", pair, "diff(A,A) reported %d regions", len(diffs))
	}
	return rep
}

// checkACLWitness verifies one packet drawn from one ACL diff region:
// each side's oracle decision must match the region's class prediction,
// and since ACL classes in a region always differ in accept bit, the
// two sides must disagree.
func checkACLWitness(rep *Report, d semdiff.ACLDiff, p ir.Packet, acl1, acl2 *ir.ACL, pair string) {
	rep.WitnessChecks++
	d1 := evalACLBothWays(rep, acl1, p, pair, "side 1")
	d2 := evalACLBothWays(rep, acl2, p, pair, "side 2")
	if d1.Permits() != d.Path1.Accept {
		rep.violate("path-mismatch", pair,
			"side 1: witness %+v in class predicted accept=%v, oracle decided %v\ntrace:\n%s",
			p, d.Path1.Accept, d1.Action, indent(d1.String()))
	}
	if d2.Permits() != d.Path2.Accept {
		rep.violate("path-mismatch", pair,
			"side 2: witness %+v in class predicted accept=%v, oracle decided %v\ntrace:\n%s",
			p, d.Path2.Accept, d2.Action, indent(d2.String()))
	}
	if d1.Action == d2.Action {
		rep.violate("witness-unsound", pair,
			"witness %+v drawn from a diff region but both sides decided %v", p, d1.Action)
	}
}

// evalACLBothWays evaluates the packet with both concrete
// implementations (oracle and ir.ACL.Evaluate), recording a violation on
// divergence.
func evalACLBothWays(rep *Report, acl *ir.ACL, p ir.Packet, pair, side string) oracle.ACLDecision {
	od := oracle.EvalACL(acl, p)
	act, _ := acl.Evaluate(p)
	if od.Action != act {
		rep.violate("oracle-vs-ir", pair, "%s: oracle says %v, ACL.Evaluate says %v on %+v\ntrace:\n%s",
			side, od.Action, act, p, indent(od.String()))
	}
	return od
}

package main

import (
	"net/http"
	"testing"
	"time"

	"repro/campion"
	"repro/internal/aclgen"
	"repro/internal/ir"
	"repro/internal/netaddr"
	"repro/internal/oracle"
	"repro/internal/policygen"
	"repro/internal/testnets"
)

// The known-answer checks must count a tampered witness or a wrong
// verdict as a failure; these tests feed them one of each.

func smallRMReport(t *testing.T) *campion.Report {
	t.Helper()
	p := policygen.Generate(policygen.Params{Seed: 3, Clauses: 60, Differences: 5})
	rep, _, err := pairOp(pairText{p.CiscoText, p.JuniperText})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPairReport(rep); err != nil {
		t.Fatalf("untampered report fails its check: %v", err)
	}
	if len(rep.RouteMapDiffs) == 0 {
		t.Fatal("no route-map differences to tamper with")
	}
	return rep
}

func TestTamperedRouteWitnessFails(t *testing.T) {
	// A prefix outside every generated range takes the default action on
	// both sides, so it witnesses no difference.
	rep := smallRMReport(t)
	w := rep.RouteMapDiffs[0].Localization.ExampleRoute.Clone()
	w.Prefix = netaddr.NewPrefix(netaddr.Addr(192<<24|2), 24)
	rep.RouteMapDiffs[0].Localization.ExampleRoute = w
	if checkPairReport(rep) == nil {
		t.Fatal("a witness both sides treat alike passed the check")
	}

	// Another difference's witness does differ, but at other lines.
	rep = smallRMReport(t)
	if len(rep.RouteMapDiffs) < 2 {
		t.Fatal("need two route-map differences")
	}
	rep.RouteMapDiffs[0].Localization.ExampleRoute = rep.RouteMapDiffs[1].Localization.ExampleRoute
	if checkPairReport(rep) == nil {
		t.Fatal("a witness of another difference passed the check")
	}
}

func TestTamperedPacketWitnessFails(t *testing.T) {
	p := aclgen.Generate(aclgen.Params{Seed: 3, Rules: 80, Differences: 4})
	rep, _, err := pairOp(pairText{p.CiscoText, p.JuniperText})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPairReport(rep); err != nil {
		t.Fatalf("untampered report fails its check: %v", err)
	}
	d := &rep.ACLDiffs[0]
	a1, a2 := rep.Config1.ACLs[d.Name1], rep.Config2.ACLs[d.Name2]
	for dst := uint32(0); ; dst++ {
		pkt := ir.Packet{Dst: netaddr.Addr(dst << 8), Protocol: 6}
		if oracle.EvalACL(a1, pkt).Action == oracle.EvalACL(a2, pkt).Action {
			d.Localization.ExamplePacket = pkt
			break
		}
	}
	if checkPairReport(rep) == nil {
		t.Fatal("a packet both sides treat alike passed the check")
	}
}

func TestEquivalenceVerdictOnInjectedPairFails(t *testing.T) {
	rep := smallRMReport(t)
	rep.RouteMapDiffs, rep.ACLDiffs, rep.Structural = nil, nil, nil
	if checkPairReport(rep) == nil {
		t.Fatal("an empty report passed although differences were injected")
	}
}

func TestFleetCheckCountsWrongVerdicts(t *testing.T) {
	members := testnets.Fleet(testnets.FleetParams{Devices: 12, Templates: 1, MutationRate: 0.25, Seed: 5})
	fr, _, err := fleetOp(members)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed, errs := checkFleet(fr, members)
	if want := int64(12 * 11 / 2); attempted != want || failed != 0 {
		t.Fatalf("correct audit: %d attempted, %d failed (%v); want %d, 0", attempted, failed, errs, want)
	}
	// Claim a mutated device is unmutated: the audit's verdicts now
	// disagree with the expected answers, which must count as failures.
	wrong := append([]testnets.FleetMember(nil), members...)
	flipped := -1
	for i := range wrong {
		if wrong[i].Mutated {
			wrong[i].Mutated, flipped = false, i
			break
		}
	}
	if flipped < 0 {
		t.Fatal("no mutated device generated")
	}
	if _, failed, _ := checkFleet(fr, wrong); failed == 0 {
		t.Fatal("wrong expected verdicts counted no failures")
	}
}

func TestStepCheck(t *testing.T) {
	ok := stepResult{latency: time.Millisecond, postCode: http.StatusOK, gCode: http.StatusOK,
		postBody: []byte(`{"device":"d","op":"ingest"}`), report: []byte(`{"name":"d vs p","diffs":2}`)}
	if _, err := checkStep(ok, true); err != nil {
		t.Fatalf("a good edit step failed: %v", err)
	}
	if _, err := checkStep(ok, false); err == nil {
		t.Fatal("differences after a revert passed")
	}
	bad := ok
	bad.gCode = http.StatusUnprocessableEntity
	if _, err := checkStep(bad, true); err == nil {
		t.Fatal("a failed request passed")
	}
}

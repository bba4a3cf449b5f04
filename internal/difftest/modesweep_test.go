package difftest_test

import (
	"bytes"
	"testing"

	"repro/campion"
	"repro/internal/aclgen"
	"repro/internal/cisco"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/policygen"
)

// render flattens a report the way a user sees it; byte equality here is
// the strongest identity the kernel modes promise.
func render(t *testing.T, rep *campion.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := campion.Write(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func modes() map[string]campion.Options {
	return map[string]campion.Options{
		"striped": {Workers: 4},
		"cached":  {Workers: 1, PolicyCache: core.NewPolicyCache()},
	}
}

// TestRouteMapModeSweep: over the generated route-map corpus, every
// kernel mode (intra-pair striping and the cross-call policy cache)
// renders byte-identical reports to the default engine. The oracle sweeps in this package check witness soundness;
// this one checks that the performance modes are invisible.
func TestRouteMapModeSweep(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	for seed := 1; seed <= seeds; seed++ {
		pair := policygen.Generate(policygen.Params{
			Seed:        uint64(seed),
			Clauses:     2 + seed%7,
			Communities: seed % 4,
			Differences: seed % 3,
		})
		c1, err := cisco.Parse("c.cfg", pair.CiscoText)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c2, err := juniper.Parse("j.cfg", pair.JuniperText)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base, err := campion.Diff(c1, c2, campion.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := render(t, base)
		for name, opts := range modes() {
			rep, err := campion.Diff(c1, c2, opts)
			if err != nil {
				t.Fatalf("seed %d mode %s: %v", seed, name, err)
			}
			if got := render(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("seed %d mode %s diverges:\n%s\nvs\n%s", seed, name, got, want)
			}
		}
	}
}

// TestACLModeSweep: the same invisibility contract for the ACL engine.
func TestACLModeSweep(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	for seed := 1; seed <= seeds; seed++ {
		pair := aclgen.Generate(aclgen.Params{
			Seed:        uint64(seed),
			Rules:       3 + seed%8,
			Pools:       2 + seed%3,
			Differences: seed % 3,
		})
		mk := func(host string, acl *ir.ACL) *ir.Config {
			return &ir.Config{Hostname: host, ACLs: map[string]*ir.ACL{"GEN": acl}}
		}
		c1, c2 := mk("r1", pair.Cisco), mk("r2", pair.Juniper)
		base, err := campion.Diff(c1, c2, campion.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := render(t, base)
		for name, opts := range modes() {
			rep, err := campion.Diff(c1, c2, opts)
			if err != nil {
				t.Fatalf("seed %d mode %s: %v", seed, name, err)
			}
			if got := render(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("seed %d mode %s diverges:\n%s\nvs\n%s", seed, name, got, want)
			}
		}
	}
}

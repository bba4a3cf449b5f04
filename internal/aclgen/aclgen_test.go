package aclgen

import (
	"testing"

	"repro/internal/cisco"
	"repro/internal/juniper"
	"repro/internal/semdiff"
	"repro/internal/symbolic"
)

func TestDeterministic(t *testing.T) {
	p := Params{Seed: 42, Rules: 50, Differences: 3}
	a := Generate(p)
	b := Generate(p)
	if a.CiscoText != b.CiscoText || a.JuniperText != b.JuniperText {
		t.Error("same seed must generate identical pairs")
	}
	c := Generate(Params{Seed: 43, Rules: 50, Differences: 3})
	if a.CiscoText == c.CiscoText {
		t.Error("different seeds should differ")
	}
}

func TestZeroDifferencesEquivalent(t *testing.T) {
	pair := Generate(Params{Seed: 7, Rules: 200, Differences: 0})
	enc := symbolic.NewPacketEncoding()
	if !semdiff.EquivalentACLs(enc, pair.Cisco, pair.Juniper) {
		t.Error("zero-difference pair must be equivalent")
	}
}

func TestInjectedDifferencesAreFound(t *testing.T) {
	pair := Generate(Params{Seed: 11, Rules: 300, Differences: 10})
	if len(pair.Injected) != 10 {
		t.Fatalf("injected = %d", len(pair.Injected))
	}
	enc := symbolic.NewPacketEncoding()
	diffs := semdiff.DiffACLs(enc, pair.Cisco, pair.Juniper)
	if len(diffs) == 0 {
		t.Error("injected differences should surface behaviorally")
	}
	t.Logf("10 injected edits -> %d behavioral difference classes", len(diffs))
}

// TestCiscoRoundTrip verifies the unparser against the parser: rendering
// the generated ACL to IOS syntax and parsing it back preserves behavior.
func TestCiscoRoundTrip(t *testing.T) {
	pair := Generate(Params{Seed: 5, Rules: 120, Differences: 0})
	cfg, err := cisco.Parse("gen.cfg", pair.CiscoText)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range cfg.Unrecognized {
		t.Errorf("unparser emitted unrecognized line: %q", u.Text())
	}
	parsed := cfg.ACLs[pair.Name]
	if parsed == nil {
		t.Fatal("ACL missing after round trip")
	}
	enc := symbolic.NewPacketEncoding()
	if !semdiff.EquivalentACLs(enc, pair.Cisco, parsed) {
		t.Error("cisco round trip changed ACL behavior")
	}
}

// TestJuniperRoundTrip does the same for the JunOS rendering.
func TestJuniperRoundTrip(t *testing.T) {
	pair := Generate(Params{Seed: 5, Rules: 120, Differences: 0})
	cfg, err := juniper.Parse("gen.cfg", pair.JuniperText)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range cfg.Unrecognized {
		t.Errorf("unparser emitted unrecognized statement: %q", u.Text())
	}
	parsed := cfg.ACLs[pair.Name]
	if parsed == nil {
		t.Fatal("filter missing after round trip")
	}
	enc := symbolic.NewPacketEncoding()
	if !semdiff.EquivalentACLs(enc, pair.Juniper, parsed) {
		t.Error("juniper round trip changed ACL behavior")
	}
}

// TestCrossVendorTextEquivalence is the full §5.4 pipeline at small
// scale: generate, render both vendors, parse both texts, diff — with
// zero injected differences the parsed pair must be equivalent.
func TestCrossVendorTextEquivalence(t *testing.T) {
	pair := Generate(Params{Seed: 19, Rules: 100, Differences: 0})
	ccfg, err := cisco.Parse("c.cfg", pair.CiscoText)
	if err != nil {
		t.Fatal(err)
	}
	jcfg, err := juniper.Parse("j.cfg", pair.JuniperText)
	if err != nil {
		t.Fatal(err)
	}
	enc := symbolic.NewPacketEncoding()
	if !semdiff.EquivalentACLs(enc, ccfg.ACLs[pair.Name], jcfg.ACLs[pair.Name]) {
		diffs := semdiff.DiffACLs(enc, ccfg.ACLs[pair.Name], jcfg.ACLs[pair.Name])
		t.Errorf("cross-vendor renderings diverge: %d diffs", len(diffs))
	}
}

func TestDefaultParams(t *testing.T) {
	pair := Generate(Params{Seed: 1})
	if len(pair.Cisco.Lines) != 101 { // 100 rules + catch-all
		t.Errorf("default rules = %d", len(pair.Cisco.Lines))
	}
}

// TestMirror: mirroring swaps every line's source and destination and
// nothing else, so mirroring twice renders the original text, and the
// mirrored pair still carries its injected differences.
func TestMirror(t *testing.T) {
	pair := Generate(Params{Seed: 9, Rules: 60, Differences: 4})
	m := pair.Mirror()
	for i, l := range pair.Cisco.Lines {
		ml := m.Cisco.Lines[i]
		if len(ml.Src) != len(l.Dst) || len(ml.Dst) != len(l.Src) || ml.Action != l.Action {
			t.Fatalf("line %d not mirrored: %+v vs %+v", i, ml, l)
		}
	}
	if back := m.Mirror(); back.CiscoText != pair.CiscoText || back.JuniperText != pair.JuniperText {
		t.Error("mirroring twice must render the original pair")
	}
	if semdiff.EquivalentACLs(symbolic.NewPacketEncoding(), m.Cisco, m.Juniper) {
		t.Error("the mirrored pair lost its injected differences")
	}
}

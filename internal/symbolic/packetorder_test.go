package symbolic_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/campion"
	"repro/internal/aclgen"
	"repro/internal/difftest"
	"repro/internal/ir"
	"repro/internal/symbolic"
)

// packetLeads are the two level orders a pair-ordered packet encoding
// can take. The tests below force each in turn, so both are exercised on
// every input whatever the scores would pick.
var packetLeads = []string{"src", "dst"}

func renderReport(t *testing.T, rep *campion.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := campion.Write(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPacketOrderGoldenCorpus: the golden corpus renders its checked-in
// bytes under either packet order, sequential and striped — the order
// changes node counts, never reports.
func TestPacketOrderGoldenCorpus(t *testing.T) {
	root := filepath.Join("..", "campiontest", "golden")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, lead := range packetLeads {
		restore := symbolic.ForcePacketLead(lead)
		for _, e := range entries {
			if !e.IsDir() || e.Name() == "repair" {
				continue
			}
			dir := filepath.Join(root, e.Name())
			cfg1, err := campion.LoadFile(filepath.Join(dir, "a.cfg"))
			if err != nil {
				t.Fatal(err)
			}
			cfg2, err := campion.LoadFile(filepath.Join(dir, "b.cfg"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(dir, "expected.txt"))
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []campion.Options{{}, {Workers: 4}} {
				rep, err := campion.Diff(cfg1, cfg2, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := renderReport(t, rep); !bytes.Equal(got, want) {
					t.Errorf("%s, %s first, %d workers: report differs from expected.txt\n--- got ---\n%s\n--- want ---\n%s",
						e.Name(), lead, opts.Workers, got, want)
				}
			}
		}
		restore()
	}
}

// TestPacketOrderACLSweep: over generated ACL pairs and their
// source-keyed mirrors, the differential oracle harness passes under
// either packet order, and the rendered reports of the two orders are
// byte-identical.
func TestPacketOrderACLSweep(t *testing.T) {
	seeds := uint64(200)
	if testing.Short() {
		seeds = 60
	}
	for seed := uint64(0); seed < seeds; seed++ {
		base := aclgen.Generate(aclgen.Params{
			Seed:        seed,
			Rules:       4 + int(seed%10),
			Pools:       2 + int(seed%6),
			Differences: int(seed % 4),
		})
		for _, pair := range []*aclgen.Pair{base, base.Mirror()} {
			mk := func(host string, acl *ir.ACL) *ir.Config {
				return &ir.Config{Hostname: host, ACLs: map[string]*ir.ACL{pair.Name: acl}}
			}
			c1, c2 := mk("r1", pair.Cisco), mk("r2", pair.Juniper)
			var reports [][]byte
			for _, lead := range packetLeads {
				restore := symbolic.ForcePacketLead(lead)
				rep := difftest.CheckACLs(pair.Cisco, pair.Juniper, pair.Name,
					difftest.Options{Samples: 16, WitnessDraws: 2, Seed: seed})
				for _, v := range rep.Violations {
					t.Errorf("seed %d, %s first: %s", seed, lead, v)
				}
				diff, err := campion.Diff(c1, c2, campion.Options{})
				restore()
				if err != nil {
					t.Fatalf("seed %d, %s first: %v", seed, lead, err)
				}
				reports = append(reports, renderReport(t, diff))
			}
			if !bytes.Equal(reports[0], reports[1]) {
				t.Fatalf("seed %d: source-first and destination-first reports differ:\n%s\nvs\n%s",
					seed, reports[0], reports[1])
			}
		}
		if t.Failed() {
			t.Fatalf("stopping after first failing seed (%d)", seed)
		}
	}
}

// TestPacketOrderStriped: a pair big enough to stripe (and its mirror)
// renders the same bytes sequentially and striped, under either order —
// the stripes and the merge must share whichever order is installed.
func TestPacketOrderStriped(t *testing.T) {
	if testing.Short() {
		t.Skip("striped pairs need ≥2048 lines")
	}
	base := aclgen.Generate(aclgen.Params{Seed: 3, Rules: 1100, Differences: 6})
	for _, pair := range []*aclgen.Pair{base, base.Mirror()} {
		mk := func(host string, acl *ir.ACL) *ir.Config {
			return &ir.Config{Hostname: host, ACLs: map[string]*ir.ACL{pair.Name: acl}}
		}
		c1, c2 := mk("r1", pair.Cisco), mk("r2", pair.Juniper)
		var want []byte
		for _, lead := range packetLeads {
			restore := symbolic.ForcePacketLead(lead)
			for _, workers := range []int{1, 2} {
				rep, err := campion.Diff(c1, c2, campion.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range rep.Stats {
					if st.Component == campion.ComponentACLs && workers > 1 && st.Stripes < 2 {
						t.Fatalf("%s first: the pair did not stripe", lead)
					}
				}
				got := renderReport(t, rep)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("%s first, %d workers: report differs:\n%s\nvs\n%s", lead, workers, got, want)
				}
			}
			restore()
		}
	}
}

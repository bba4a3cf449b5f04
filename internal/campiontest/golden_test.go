package campiontest_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/campion"
	"repro/internal/core"
	"repro/internal/difftest"
)

var update = flag.Bool("update", false, "rewrite golden expected.txt files")

// TestGoldenCorpus diffs every checked-in configuration pair under
// golden/ and compares the rendered report byte-for-byte against the
// pair's expected.txt (refresh with -update). It then runs the
// differential oracle harness over the same pair, so witness soundness
// is asserted for every diff region the golden reports contain.
func TestGoldenCorpus(t *testing.T) {
	entries, err := os.ReadDir("golden")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 10 {
		t.Fatalf("golden corpus has %d pairs, want at least 10", len(entries))
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "repair" {
			// golden/repair holds the repair corpus (buggy pair + expected
			// patch), exercised by TestRepairGoldenCorpus instead.
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			dir := filepath.Join("golden", e.Name())
			cfg1, err := campion.LoadFile(filepath.Join(dir, "a.cfg"))
			if err != nil {
				t.Fatal(err)
			}
			cfg2, err := campion.LoadFile(filepath.Join(dir, "b.cfg"))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := campion.Diff(cfg1, cfg2, campion.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := campion.Write(&buf, rep); err != nil {
				t.Fatal(err)
			}

			goldenPath := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/campiontest/ -update` to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report changed; rerun with -update if intended\n--- got ---\n%s\n--- want ---\n%s",
					buf.Bytes(), want)
			}

			// Kernel modes are pure optimizations: intra-pair striping and
			// the cross-call policy cache must both render the exact bytes
			// the default configuration produced.
			for name, opts := range map[string]campion.Options{
				"workers": {Workers: 4},
				"cached":  {Workers: 1, PolicyCache: core.NewPolicyCache()},
			} {
				mrep, err := campion.Diff(cfg1, cfg2, opts)
				if err != nil {
					t.Fatalf("mode %s: %v", name, err)
				}
				var mbuf bytes.Buffer
				if err := campion.Write(&mbuf, mrep); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mbuf.Bytes(), buf.Bytes()) {
					t.Errorf("mode %s diverges from default rendering\n--- mode ---\n%s\n--- default ---\n%s",
						name, mbuf.Bytes(), buf.Bytes())
				}
			}

			// Witness soundness for every region reported on this pair:
			// the oracle harness re-derives the route-map and ACL diffs
			// and confirms each region with concrete counterexamples.
			drep := difftest.CheckConfigs(cfg1, cfg2, difftest.Options{
				Samples: 24, Seed: uint64(len(e.Name())),
			})
			for _, v := range drep.Violations {
				t.Errorf("oracle harness: %s", v)
			}
		})
	}
}

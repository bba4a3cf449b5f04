// Command gengolden materializes the golden corpus under
// internal/campiontest/golden/: one directory per configuration pair
// with a.cfg and b.cfg. Run it from the repository root after changing
// a source fixture, then `go test ./internal/campiontest/ -update` to
// refresh the expected diff outputs.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/aclgen"
	"repro/internal/campiontest"
	"repro/internal/policygen"
	"repro/internal/testnets"
)

func main() {
	root := filepath.Join("internal", "campiontest", "golden")

	write := func(name, a, b string) {
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			panic(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "a.cfg"), []byte(a), 0o644); err != nil {
			panic(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "b.cfg"), []byte(b), 0o644); err != nil {
			panic(err)
		}
		fmt.Println("wrote", dir)
	}

	write("fig1-prefixlist-bug", campiontest.Figure1Cisco, campiontest.Figure1Juniper)
	write("fig1-fixed", campiontest.Figure1Cisco, campiontest.Figure1JuniperFixed)

	for _, p := range []testnets.Pair{
		testnets.UniversityCore(),
		testnets.UniversityBorder(),
		testnets.DatacenterReplacement(),
		testnets.DatacenterGateway(),
	} {
		write(p.Name, p.Text1, p.Text2)
	}
	for _, p := range testnets.DatacenterToRPairs() {
		write(p.Name, p.Text1, p.Text2)
	}

	gp := policygen.Generate(policygen.Params{Seed: 11, Clauses: 6, Communities: 4, Differences: 2})
	write("genpol-seed11", gp.CiscoText, gp.JuniperText)
	ga := aclgen.Generate(aclgen.Params{Seed: 5, Rules: 10, Pools: 4, Differences: 2})
	write("genacl-seed5", ga.CiscoText, ga.JuniperText)
	// The source-keyed mirror: each rule guards its own source, so the
	// pair-ordered packet encoding leads with the other address field.
	gm := ga.Mirror()
	write("genacl-seed5-srckeyed", gm.CiscoText, gm.JuniperText)
}

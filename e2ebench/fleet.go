package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/campion"
	"repro/internal/testnets"
)

// The fleet-audit workload: one role (a single template, so devices are
// expected to be equivalent) of 1000 devices, 5% of them edited.
const fleetDevicesN, fleetMutants = 1000, 50

func generateFleetAudit(seed int64) { fleetMembers(seed, fleetDevicesN, fleetMutants, newEditor(seed)) }

// fleetOptions pins the audit's worker counts.
func fleetOptions(opts campion.Options) campion.FleetOptions {
	return campion.FleetOptions{BatchOptions: campion.BatchOptions{Options: opts, BatchWorkers: workers}}
}

// fleetDevices hands the fleet to the program as text, as `campion -all`
// does for a directory: a content sum and a parse on demand per device.
// parsed, when non-nil, is called around each parse with its bounds.
func fleetDevices(members []testnets.FleetMember, parsed func(start, end time.Time)) []campion.FleetDevice {
	devices := make([]campion.FleetDevice, len(members))
	for i, m := range members {
		file, text := m.Name+".cfg", m.Text
		load := func() (*campion.Config, error) { return campion.Parse(file, text) }
		if parsed != nil {
			load = func() (*campion.Config, error) {
				start := time.Now()
				cfg, err := campion.Parse(file, text)
				parsed(start, time.Now())
				return cfg, err
			}
		}
		devices[i] = campion.FleetDevice{Name: m.Name, File: file,
			ContentSum: campion.ContentSum([]byte(text)), Load: load}
	}
	return devices
}

// renderFleet expands and renders every pair section the way
// `campion -all` prints them; rendered, when non-nil, is called around
// each report rendering with its bounds.
func renderFleet(fr *campion.FleetResult, w *countWriter, rendered func(start, end time.Time)) error {
	var err error
	fr.Each(func(res campion.BatchResult) bool {
		w.Write([]byte("=== " + res.Name + " ===\n"))
		switch {
		case res.Err != nil:
			fmt.Fprintf(w, "error: %v\n\n", res.Err)
		case res.Report.TotalDifferences() == 0:
			w.Write([]byte("equivalent\n\n"))
		default:
			start := time.Now()
			err = campion.Write(w, res.Report)
			if rendered != nil {
				rendered(start, time.Now())
			}
		}
		return err == nil
	})
	return err
}

// fleetOp is one untraced audit: texts in, every pair section rendered.
func fleetOp(members []testnets.FleetMember) (*campion.FleetResult, time.Duration, error) {
	start := time.Now()
	fr, err := campion.DiffFleet(context.Background(), fleetDevices(members, nil), fleetOptions(diffOptions))
	if err != nil {
		return nil, 0, err
	}
	if err := renderFleet(fr, &countWriter{}, nil); err != nil {
		return nil, 0, err
	}
	return fr, time.Since(start), nil
}

// checkFleet is the known-answer check of one audit. It counts one
// attempt per member pair: the class count must equal the generator's,
// every pair must expand without error, pairs of unmutated devices must
// be equivalent, and pairs with a mutated device must not.
func checkFleet(fr *campion.FleetResult, members []testnets.FleetMember) (attempted, failed int64, errs []error) {
	if got, want := fr.Stats.Classes, testnets.ExpectedClasses(members); got != want {
		errs = append(errs, fmt.Errorf("%d classes, want %d", got, want))
		failed++
	}
	mutated := map[string]bool{}
	for _, m := range members {
		mutated[m.Name] = m.Mutated
	}
	i, j := 0, 1
	fr.Each(func(res campion.BatchResult) bool {
		attempted++
		a, b := members[i].Name, members[j].Name
		if j++; j == len(members) {
			i++
			j = i + 1
		}
		var err error
		switch {
		case res.Name != a+" vs "+b:
			err = fmt.Errorf("pair %q expanded where %q was expected", res.Name, a+" vs "+b)
		case res.Err != nil:
			err = fmt.Errorf("pair %s: %v", res.Name, res.Err)
		case !mutated[a] && !mutated[b] && res.Report.TotalDifferences() != 0:
			err = fmt.Errorf("pair %s: unmutated devices reported different", res.Name)
		case (mutated[a] || mutated[b]) && res.Report.TotalDifferences() == 0:
			err = fmt.Errorf("pair %s: a mutated device reported equivalent", res.Name)
		}
		if err != nil {
			failed++
			if len(errs) < 5 {
				errs = append(errs, err)
			}
		}
		return true
	})
	if want := int64(len(members) * (len(members) - 1) / 2); attempted != want {
		errs = append(errs, fmt.Errorf("%d pairs expanded, want %d", attempted, want))
		failed += want - attempted
	}
	return attempted, failed, errs
}

func runFleetAudit(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	if !cfg.trace {
		setup, err := probeSetup("fleet-audit", cfg.seed, 11)
		if err != nil {
			return nil, err
		}
		out.setup = setup
	}
	members := fleetMembers(cfg.seed, fleetDevicesN, fleetMutants, newEditor(cfg.seed))
	runtime.GC() // every run starts measuring from the same heap
	check := func(fr *campion.FleetResult) {
		a, f, errs := checkFleet(fr, members)
		out.attempted += a
		out.failed += f
		for _, err := range errs {
			out.notes = append(out.notes, "fleet-audit: check failed: "+err.Error())
		}
	}
	start := time.Now()
	if !cfg.trace {
		for ops := 0; !cfg.done(start, ops, 3); ops++ {
			fr, d, err := fleetOp(members)
			if err != nil {
				return nil, err
			}
			out.latencies = append(out.latencies, d)
			check(fr)
		}
		return out, nil
	}

	t := newTracer()
	journal, js := newJournal(t)
	var lr layerRun
	var untraced, traced []time.Duration
	for op := 0; !cfg.done(start, op, 1); op++ {
		fr, d, err := fleetOp(members)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, d)
		check(fr)

		m0 := readMem()
		root := t.begin(op, -1, rootSpan)
		opStart := time.Now()
		js.setOp(op, root)
		devices := fleetDevices(members, func(s, e time.Time) {
			t.addParallel(op, js.phase("hash", root), "cisco.parse", s, e)
		})
		opts := diffOptions
		opts.Journal = journal
		fr, err = campion.DiffFleet(context.Background(), devices, fleetOptions(opts))
		if err != nil {
			return nil, err
		}
		cw := &countWriter{}
		expand := t.begin(op, root, "fleet.expand")
		err = renderFleet(fr, cw, func(s, e time.Time) { t.add(op, expand, "present.render", s, e) })
		t.end(expand)
		if err != nil {
			return nil, err
		}
		traced = append(traced, time.Since(opStart))
		t.end(root)
		m1 := readMem()
		check(fr)

		lr.addOp(t, op, map[string]float64{
			"fleet.classes": float64(fr.Stats.Classes), "fleet.rep_pairs": float64(fr.Stats.RepPairs),
			"bdd.nodes": float64(js.pairNodes()), "present.bytes": float64(cw.n),
			"runtime.alloc_mb": m0.allocMB(m1), "runtime.gc_ms": m0.gcMS(m1),
		})
	}
	out.layers = lr.metrics(map[string]float64{"trace.overhead_ms": ms(median(traced)) - ms(median(untraced))})
	table := lr.selfTable("fleet-audit audit")
	out.notes = append(out.notes, table)
	if err := writeTraceFiles(cfg, t, len(lr.ops), table); err != nil {
		return nil, err
	}
	return out, nil
}

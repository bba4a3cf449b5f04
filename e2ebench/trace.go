package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/campion"
	"repro/internal/obs"
)

// span is one recorded interval around a call into a layer. Names are
// "layer.what"; the root span of an operation is named rootSpan.
type span struct {
	ID, Parent int // Parent is -1 for an operation's root
	Op         int // one id per operation
	Name       string
	Start, End time.Duration // offsets from the tracer's start
	// Parallel spans run on worker goroutines, beside their siblings.
	Parallel bool
	// Virtual spans carry a duration measured by replaying a layer's
	// calls outside the operation; they have no real placement and are
	// drawn end to end from their parent's start. Their duration is taken
	// out of their parent's self time.
	Virtual bool
}

const rootSpan = "op"

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	return t.add(op, parent, name, time.Now(), time.Time{})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) { t.close(id, time.Now()) }

// close sets an open span's end.
func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.t0)
	t.mu.Unlock()
}

// startOf returns when a span started.
func (t *tracer) startOf(id int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.t0.Add(t.spans[id].Start)
}

// add records a span with known bounds; a zero end leaves it open.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: start.Sub(t.t0)}
	if !end.IsZero() {
		s.End = end.Sub(t.t0)
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// addParallel records a closed span that ran beside its siblings.
func (t *tracer) addParallel(op, parent int, name string, start, end time.Time) int {
	id := t.add(op, parent, name, start, end)
	t.mu.Lock()
	t.spans[id].Parallel = true
	t.mu.Unlock()
	return id
}

// addVirtual attaches a replayed measurement of dur to parent.
func (t *tracer) addVirtual(op, parent int, name string, dur time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Virtual: true}
	t.spans = append(t.spans, s)
	// Placement is resolved when the parent's bounds are final.
	t.spans[s.ID].End = dur
	return s.ID
}

// time wraps fn in a span.
func (t *tracer) time(op, parent int, name string, fn func()) time.Duration {
	id := t.begin(op, parent, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// opSpans returns the spans of one operation, parents before children,
// with every real span clamped into its parent and virtual spans laid
// end to end from their parent's start.
func (t *tracer) opSpans(op int) []span {
	t.mu.Lock()
	var out []span
	for _, s := range t.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	index := map[int]int{}
	for i, s := range out {
		index[s.ID] = i
	}
	depth := func(i int) int {
		d := 0
		for p, ok := index[out[i].Parent]; ok; p, ok = index[out[p].Parent] {
			d++
		}
		return d
	}
	depths := make([]int, len(out))
	for i := range out {
		depths[i] = depth(i)
	}
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return depths[order[a]] < depths[order[b]] })
	cursor := map[int]time.Duration{} // parent id -> end of its last virtual child
	for _, i := range order {
		s := &out[i]
		p, ok := index[s.Parent]
		if !ok {
			continue
		}
		ps := out[p]
		if s.Virtual {
			dur := s.End
			s.Start = max(ps.Start, cursor[ps.ID])
			s.End = s.Start + dur
			cursor[ps.ID] = s.End
			continue
		}
		s.Start = min(max(s.Start, ps.Start), ps.End)
		s.End = min(max(s.End, s.Start), ps.End)
	}
	sorted := make([]span, len(out))
	for k, i := range order {
		sorted[k] = out[i]
	}
	return sorted
}

// selfTimes attributes an operation's wall time to its spans. At every
// instant the time is split equally among the innermost active spans
// (active spans with no active child), so parallel workers share the
// wall clock and the self times of the real spans sum to the root's
// duration. A virtual span's self time is its duration, taken out of its
// parent's self time.
func selfTimes(spans []span) map[int]time.Duration {
	type edge struct {
		t     time.Duration
		start bool
		id    int
	}
	parent := map[int]int{}
	var edges []edge
	for _, s := range spans {
		parent[s.ID] = s.Parent
		if s.Virtual || s.End <= s.Start {
			continue
		}
		edges = append(edges, edge{s.Start, true, s.ID}, edge{s.End, false, s.ID})
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return !edges[i].start && edges[j].start // close before opening at a tie
	})
	self := map[int]time.Duration{}
	active := map[int]bool{}
	kids := map[int]int{}
	for i, e := range edges {
		if e.start {
			active[e.id] = true
			if p, ok := parent[e.id]; ok && active[p] {
				kids[p]++
			}
		} else {
			delete(active, e.id)
			if p, ok := parent[e.id]; ok && active[p] {
				kids[p]--
			}
		}
		if i+1 == len(edges) {
			break
		}
		dt := edges[i+1].t - e.t
		if dt <= 0 {
			continue
		}
		var leaves []int
		for id := range active {
			if kids[id] == 0 {
				leaves = append(leaves, id)
			}
		}
		for _, id := range leaves {
			self[id] += dt / time.Duration(len(leaves))
		}
	}
	for _, s := range spans {
		if s.Virtual {
			d := s.End - s.Start
			self[s.ID] += d
			self[s.Parent] -= d
		}
	}
	return self
}

// inclusive are the span names reported by their whole duration rather
// than their self time: the program's components as ComponentStats
// and the Diff call see them. What is left of their self time once the
// replayed layers are taken out counts as unattributed.
var inclusive = map[string]bool{
	"core.diff": true, "core.routemaps": true, "core.acls": true, "core.structural": true,
}

// selfMetric sends the self time of the session's inner spans to the
// session layer's one handler metric (session.audit_ms is the audit's
// own duration, as the session reports it).
var selfMetric = map[string]string{
	"session.ingest": "session.handler_ms", "session.audit": "session.handler_ms",
}

// layerTimes turns one operation's spans into per-layer metrics in
// milliseconds, plus the self-time table rows (span name -> self ms).
func layerTimes(spans []span) (metrics, table map[string]float64) {
	self := selfTimes(spans)
	metrics, table = map[string]float64{}, map[string]float64{}
	hasVirtual := map[int]bool{}
	for _, s := range spans {
		if s.Virtual {
			hasVirtual[s.Parent] = true
		}
	}
	var unattributed time.Duration
	for _, s := range spans {
		table[s.Name] += ms(self[s.ID])
		switch {
		case s.Name == rootSpan:
			unattributed += self[s.ID]
		case inclusive[s.Name]:
			metrics[s.Name+"_ms"] += ms(s.End - s.Start)
			if hasVirtual[s.ID] {
				unattributed += self[s.ID]
			}
		case selfMetric[s.Name] != "":
			metrics[selfMetric[s.Name]] += ms(self[s.ID])
		default:
			metrics[s.Name+"_ms"] += ms(self[s.ID])
		}
	}
	metrics["core.unattributed_ms"] = ms(unattributed)
	return metrics, table
}

// journalSpans turns the program's own journal events (fleet phases,
// representative pair diffs and their components, session snapshots
// and audits) into spans of the operation set by setOp.
type journalSpans struct {
	t   *tracer
	jt0 time.Time // the journal's start, to place its monotonic stamps

	mu sync.Mutex
	op int // -1: events are not traced
	// parent is the span new phase spans open under; diff is the span a
	// standalone Diff's components land under; handler is the daemon
	// request being served, audit its open audit span (-1: none).
	parent, diff, handler, audit int
	phases                       map[string]int
	pending                      map[string][]obs.Event // component events by pair, until the pair ends
	// Per operation: the BDD nodes of its computed pair diffs, and its
	// snapshot's ingest span.
	countsOp, ingest int
	nodes            int64
}

// newJournal returns a listener-only journal feeding spans into t.
func newJournal(t *tracer) (*campion.Journal, *journalSpans) {
	js := &journalSpans{t: t, op: -1, parent: -1, diff: -1, handler: -1, audit: -1, countsOp: -1, ingest: -1,
		phases: map[string]int{}, pending: map[string][]obs.Event{}}
	js.jt0 = time.Now()
	j := campion.NewJournal(nil)
	j.Listen(js.event)
	return j, js
}

// setOp routes the following events to operation op under parent; a
// negative op stops tracing them.
func (js *journalSpans) setOp(op, parent int) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if op >= 0 && op != js.countsOp {
		js.countsOp, js.nodes, js.ingest = op, 0, -1
	}
	js.op, js.parent, js.diff, js.handler, js.audit = op, parent, -1, -1, -1
}

// setHandler routes the following events under the daemon request span
// id of operation op.
func (js *journalSpans) setHandler(op, id int) {
	js.setOp(op, id)
	js.mu.Lock()
	js.handler = id
	js.mu.Unlock()
}

// setDiff makes id the parent of standalone component events.
func (js *journalSpans) setDiff(id int) {
	js.mu.Lock()
	js.diff = id
	js.mu.Unlock()
}

func (js *journalSpans) at(e obs.Event) time.Time { return js.jt0.Add(time.Duration(e.T)) }

// phaseSpan names the span of a fleet phase.
func phaseSpan(phase string) string {
	if phase == "rep-pairs" {
		return "fleet.rep_diff"
	}
	return "fleet." + phase
}

// componentSpan names the span of one component check.
func componentSpan(c string) string {
	switch c {
	case "route-maps":
		return "core.routemaps"
	case "acls":
		return "core.acls"
	}
	return "core.structural"
}

func (js *journalSpans) event(e obs.Event) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.op < 0 {
		return
	}
	end := js.at(e)
	switch e.Type {
	case obs.EvPhaseStart:
		js.phases[e.Phase] = js.t.add(js.op, js.parent, phaseSpan(e.Phase), end, time.Time{})
	case obs.EvPhaseEnd:
		if id, ok := js.phases[e.Phase]; ok {
			js.t.close(id, end)
			delete(js.phases, e.Phase)
		}
	case obs.EvComponent:
		if e.Pair == "" && js.diff >= 0 {
			js.t.add(js.op, js.diff, componentSpan(e.Component), end.Add(-time.Duration(e.Dur)), end)
		} else {
			js.pending[e.Pair] = append(js.pending[e.Pair], e)
		}
	case obs.EvPair:
		comps := js.pending[e.Pair]
		delete(js.pending, e.Pair)
		if e.Op == "cached" {
			return
		}
		js.nodes += e.Nodes
		parent := js.parent
		if id, ok := js.phases["rep-pairs"]; ok {
			parent = id
		}
		id := js.t.addParallel(js.op, parent, "core.diff", end.Add(-time.Duration(e.Dur)), end)
		for _, c := range comps {
			ce := js.at(c)
			js.t.add(js.op, id, componentSpan(c.Component), ce.Add(-time.Duration(c.Dur)), ce)
		}
	case obs.EvSnapshot:
		// The session records the snapshot once it has parsed it, then
		// audits: the handler's time so far is the ingest, and the audit
		// starts here.
		if js.handler >= 0 {
			js.ingest = js.t.add(js.op, js.handler, "session.ingest", js.t.startOf(js.handler), end)
			js.audit = js.t.add(js.op, js.handler, "session.audit", end, time.Time{})
			js.parent = js.audit
		}
	case obs.EvAudit:
		if js.audit >= 0 {
			js.t.close(js.audit, end)
			js.parent, js.audit = js.handler, -1
		}
	}
}

// phase returns the span of a fleet phase in progress, or fallback.
func (js *journalSpans) phase(name string, fallback int) int {
	js.mu.Lock()
	defer js.mu.Unlock()
	if id, ok := js.phases[name]; ok {
		return id
	}
	return fallback
}

// pairNodes returns the BDD nodes of the current operation's computed
// pair diffs, from their journal events.
func (js *journalSpans) pairNodes() int64 {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.nodes
}

// lastIngest returns the current operation's ingest span, or -1.
func (js *journalSpans) lastIngest() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.ingest
}

// layerRun accumulates per-operation layer metrics and the self-time
// table over a traced run.
type layerRun struct {
	ops    []map[string]float64
	tables []map[string]float64
	walls  []float64
}

// addOp records one traced operation: its span-derived times plus the
// workload's own counts.
func (lr *layerRun) addOp(t *tracer, op int, counts map[string]float64) {
	spans := t.opSpans(op)
	m, table := layerTimes(spans)
	for k, v := range counts {
		m[k] += v
	}
	lr.ops = append(lr.ops, m)
	lr.tables = append(lr.tables, table)
	for _, s := range spans {
		if s.Parent < 0 {
			lr.walls = append(lr.walls, ms(s.End-s.Start))
		}
	}
}

// metrics returns the median over operations of every per-layer metric;
// names missing from an operation count as 0 there, and every name in
// perLayer is present.
func (lr *layerRun) metrics(extra map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, d := range perLayer {
		var xs []float64
		for _, m := range lr.ops {
			xs = append(xs, m[d.name])
		}
		v := medianFloat(xs)
		if x, ok := extra[d.name]; ok {
			v = x
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}

// perLayer lists every per-layer metric, in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"cisco.parse_ms", "ms"}, {"juniper.parse_ms", "ms"},
	{"cisco.parse_growth_4x", "ratio"},
	{"symbolic.encode_ms", "ms"}, {"symbolic.paths_ms", "ms"}, {"symbolic.paths", "count"},
	{"semdiff.diff_ms", "ms"}, {"semdiff.diffs", "count"}, {"semdiff.diff_growth_4x", "ratio"},
	{"bdd.nodes", "count"}, {"bdd.cache_hit_ratio", "ratio"},
	{"ddnf.build_ms", "ms"}, {"ddnf.ranges", "count"}, {"ddnf.dag_nodes", "count"},
	{"ddnf.build_growth_4x", "ratio"},
	{"headerloc.localize_ms", "ms"},
	{"core.diff_ms", "ms"}, {"core.routemaps_ms", "ms"}, {"core.acls_ms", "ms"},
	{"core.structural_ms", "ms"}, {"core.unattributed_ms", "ms"},
	{"present.render_ms", "ms"}, {"present.bytes", "bytes"},
	{"fleet.hash_ms", "ms"}, {"fleet.rep_diff_ms", "ms"}, {"fleet.expand_ms", "ms"},
	{"fleet.classes", "count"}, {"fleet.rep_pairs", "count"},
	{"session.handler_ms", "ms"}, {"session.audit_ms", "ms"}, {"session.rep_computed", "count"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// selfTable renders the median self time of every span name across the
// traced operations, with its share of the median operation wall time.
func (lr *layerRun) selfTable(title string) string {
	names := map[string]bool{}
	for _, t := range lr.tables {
		for n := range t {
			names[n] = true
		}
	}
	type row struct {
		name string
		ms   float64
	}
	var rows []row
	for n := range names {
		var xs []float64
		for _, t := range lr.tables {
			xs = append(xs, t[n])
		}
		rows = append(rows, row{n, medianFloat(xs)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	wall := medianFloat(lr.walls)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: median self time per span over %d traced operations (median wall %.3f ms)\n",
		title, len(lr.tables), wall)
	fmt.Fprintf(&b, "%-24s %12s %8s\n", "span", "self_ms", "share")
	for _, r := range rows {
		label := r.name
		if label == rootSpan {
			label = "(op, outside any span)"
		}
		share := 0.0
		if wall > 0 {
			share = 100 * r.ms / wall
		}
		fmt.Fprintf(&b, "%-24s %12.3f %7.1f%%\n", label, r.ms, share)
	}
	return b.String()
}

// chromeEvent is one complete event of the Chrome trace_event format,
// the same JSON array `campion report -trace` emits.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every operation's spans as a Chrome trace. Parallel
// spans are packed greedily onto worker lanes; other spans share their
// parent's lane.
func (t *tracer) writeChrome(w io.Writer, ops int) error {
	var all []span
	for op := 0; op < ops; op++ {
		all = append(all, t.opSpans(op)...)
	}
	var laneEnd []time.Duration
	var par []int
	for i, s := range all {
		if s.Parallel {
			par = append(par, i)
		}
	}
	sort.SliceStable(par, func(a, b int) bool { return all[par[a]].Start < all[par[b]].Start })
	lane := map[[2]int]int{} // (op, span id) -> lane
	for _, i := range par {
		s := all[i]
		l := 0
		for l < len(laneEnd) && laneEnd[l] > s.Start {
			l++
		}
		if l == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[l] = s.End
		lane[[2]int{s.Op, s.ID}] = l + 1
	}
	events := make([]chromeEvent, 0, len(all))
	for _, s := range all {
		k := [2]int{s.Op, s.ID}
		if _, ok := lane[k]; !ok {
			lane[k] = lane[[2]int{s.Op, s.Parent}]
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lane[k],
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "virtual": s.Virtual},
		})
	}
	return json.NewEncoder(w).Encode(events)
}

// writeTraceFiles writes the Chrome trace and the self-time table of a
// traced run under traceDir, named after the workload and seed.
func writeTraceFiles(cfg runConfig, t *tracer, ops int, table string) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := t.writeChrome(f, ops); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(base+".selftime.txt", []byte(table), 0o644)
}

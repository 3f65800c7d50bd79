package sim

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/report"
	"sharellc/internal/workloads"
)

func planTestConfig(t *testing.T, names []string) Config {
	t.Helper()
	models, err := ModelsByName(names)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Machine: cache.Config{
			Cores:  8,
			L1Size: 2 * cache.KB, L1Ways: 2,
			L2Size: 8 * cache.KB, L2Ways: 4,
			LLCSize: 64 * cache.KB, LLCWays: 8,
		},
		Seed:   1,
		Scale:  0.02,
		Models: models,
	}
}

func planTestOptions() ExpOptions {
	o := DefaultExpOptions()
	o.LLCSize = 64 * cache.KB
	o.LLCWays = 8
	o.Policies = []string{"lru", "srrip"}
	return o
}

func tableJSON(t *testing.T, tables []*report.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range tables {
		b, err := tb.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestPlanTitlesMatchRun pins every spec's titles to its rendered
// tables' titles, one table per title, so the table count a result is
// checked against agrees with the output.
func TestPlanTitlesMatchRun(t *testing.T) {
	opts := planTestOptions()
	for _, id := range ExperimentIDs() {
		sp, ok := planFor(id, opts)
		if !ok {
			continue
		}
		tabs := sp.Render(nil)
		if len(tabs) != len(sp.Titles) {
			t.Errorf("%s: %d spec titles but %d rendered tables", id, len(sp.Titles), len(tabs))
			continue
		}
		for i, tb := range tabs {
			if tb.Title != sp.Titles[i] {
				t.Errorf("%s: spec title %q but rendered table title %q", id, sp.Titles[i], tb.Title)
			}
		}
	}
}

// TestPlanForCatalogue: every experiment but the static description
// tables has a table plan, and m1's and a5's plans are whole-job specs
// (a5's naming the workloads whose streams it reads) while every other
// spec runs per workload. A1, A2 and A3 share one replay per workload
// across their tables. PlanFor is planFor as a one-spec list.
func TestPlanForCatalogue(t *testing.T) {
	opts := planTestOptions()
	tables := map[string]int{"a1": 2, "a2": 4, "a3": 3}
	for _, id := range append(ExperimentIDs(), "nope") {
		sp, ok := planFor(id, opts)
		if static := id == "config" || id == "suite" || id == "nope"; ok == static {
			t.Errorf("planFor(%q): planned = %v", id, ok)
			continue
		}
		if specs, listed := PlanFor(id, opts); listed != ok || ok && len(specs) != 1 {
			t.Errorf("PlanFor(%q): %d specs, planned %v", id, len(specs), listed)
		}
		if n, ok := tables[id]; ok && len(sp.Titles) != n {
			t.Errorf("%s: %d tables, want %d", id, len(sp.Titles), n)
		}
		if whole := id == "m1" || id == "a5"; sp.whole != whole {
			t.Errorf("%s: whole = %v", id, sp.whole)
		}
		if (len(sp.reads) > 0) != (id == "a5") {
			t.Errorf("%s reads %v", id, sp.reads)
		}
	}
}

// TestEncodeRowsRefusesNonFinite: the JSON wire cannot carry NaN or
// ±Inf, so encoding a row that holds one is an error rather than a
// changed row.
func TestEncodeRowsRefusesNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if wire, err := EncodeRows([][]PolicyRow{{{Workload: "x", Policy: "lru", MissesVsLRU: x}}}); err == nil {
			t.Errorf("EncodeRows with %v: encoded %s, want an error", x, wire)
		}
	}
}

// TestDecodeRowsStrict: a body that is not exactly one array of the
// kind's row arrays is refused: a non-finite or out-of-range number
// token, an unknown field, bytes after the array, a bare object, or a
// flat row array.
func TestDecodeRowsStrict(t *testing.T) {
	for _, body := range []string{
		`[[{"MissesVsLRU":NaN}]]`,
		`[[{"MissesVsLRU":Infinity}]]`,
		`[[{"MissesVsLRU":-Infinity}]]`,
		`[[{"MissesVsLRU":1e999}]]`,
		`[[{"Workload":"x","Bogus":1}]]`,
		`[[{"Workload":"x"}]] []`,
		`[[{"Workload":"x"}]]x`,
		`{"Workload":"x"}`,
		`[{"Workload":"x"}]`,
	} {
		if _, err := DecodeRows("policy", []byte(body)); err == nil {
			t.Errorf("DecodeRows accepted %s", body)
		}
	}
}

// TestSpecDecodeRowsCountsTables: a job's plan refuses a cell's result
// that does not hold exactly one row array per table of its spec.
func TestSpecDecodeRowsCountsTables(t *testing.T) {
	plan, _ := PlanJob(JobRequest{Exp: "a2", Request: Request{LLCMB: 4, Ways: 16, Seed: 1, Scale: 1}})
	if _, err := plan.Decode([]byte(`[[],[],[],null]`)); err != nil {
		t.Errorf("a2 refused four tables: %v", err)
	}
	for _, body := range []string{`null`, `[]`, `[[],[],[]]`, `[[],[],[],[],[]]`} {
		if _, err := plan.Decode([]byte(body)); err == nil {
			t.Errorf("a2 (%d tables) accepted %s", len(plan.spec.Titles), body)
		}
	}
}

// TestDecodeRowsUnknownKind pins the enumerating error contract.
func TestDecodeRowsUnknownKind(t *testing.T) {
	if _, err := DecodeRows("bogus", nil); err == nil {
		t.Error("DecodeRows with unknown kind: want error, got nil")
	}
	if _, err := MergeRows("bogus", nil, nil); err == nil {
		t.Error("MergeRows with unknown kind: want error, got nil")
	}
}

// TestBareSuite: the whole-job plans (m1, a5) run on a bare suite, the
// way every cell of theirs runs, and their rows, shipped through the wire codec, render the same
// tables as on a prepared suite.
func TestBareSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sub-suites; skipped in -short")
	}
	cfg := planTestConfig(t, []string{"canneal", "streamcluster", "swaptions"})
	opts := planTestOptions()

	whole, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := bareSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"m1", "a5"} {
		sp, _ := planFor(id, opts)
		want, err := sp.Run(whole)
		if err != nil {
			t.Fatalf("%s on a prepared suite: %v", id, err)
		}
		rows, err := sp.Run(bare)
		if err != nil {
			t.Fatalf("%s on a bare suite: %v", id, err)
		}
		wire, err := EncodeRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sp.codec.decode(wire, len(sp.Titles))
		if err != nil {
			t.Fatal(err)
		}
		if w, g := tableJSON(t, sp.Render(want)), tableJSON(t, sp.Render(got)); !bytes.Equal(w, g) {
			t.Errorf("%s: bare-suite table differs from the prepared suite's:\nwant %s\ngot  %s", id, w, g)
		}
	}
	if _, err := bareSuite(context.Background(), Config{}); err == nil {
		t.Error("bareSuite accepted a zero scale")
	}
}

// testJob plans a normalized request of exp over workloads.
func testJob(t *testing.T, exp string, workloads ...string) (JobRequest, Job) {
	t.Helper()
	req := JobRequest{Exp: exp, Request: Request{LLCMB: 0.125, Ways: 16, Scale: 0.02, Workloads: workloads}}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	plan, ok := PlanJob(req)
	if !ok {
		t.Fatalf("%s over %v: no plan", exp, workloads)
	}
	return req, plan
}

// TestPlanJobCells: a job's cells are its workloads in the suite's
// model order (the request's sorted list, or the full suite's catalogue
// order), or one empty workload for a whole spec, and each cell reads
// the request-scale models of its streams: its workload's, a5's six,
// m1's none. Static experiments have no plan.
func TestPlanJobCells(t *testing.T) {
	names := func(ms []workloads.Model) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if _, plan := testJob(t, "f5", "swaptions", "canneal"); !reflect.DeepEqual(plan.Cells, []string{"canneal", "swaptions"}) {
		t.Errorf("f5 over swaptions and canneal: cells %v, want canneal and swaptions", plan.Cells)
	}
	req, plan := testJob(t, "f4")
	if want := names(workloads.Suite()); !reflect.DeepEqual(plan.Cells, want) {
		t.Errorf("f4 over the full suite: cells %v, want %v", plan.Cells, want)
	}
	for _, w := range plan.Cells {
		m, err := workloads.ByName(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Reads(w); !reflect.DeepEqual(got, []workloads.Model{m.Scaled(req.Scale)}) {
			t.Errorf("f4 cell %s reads %v, want %s at scale %g", w, names(got), w, req.Scale)
		}
	}
	for _, c := range []struct {
		exp   string
		reads []string
	}{{"m1", nil}, {"a5", a5Workloads()}} {
		_, plan := testJob(t, c.exp, "canneal")
		if want := []string{""}; !reflect.DeepEqual(plan.Cells, want) {
			t.Errorf("%s: cells %q, want %q", c.exp, plan.Cells, want)
		}
		if got := names(plan.Reads(plan.Cells[0])); !reflect.DeepEqual(got, c.reads) {
			t.Errorf("%s reads %v, want %v", c.exp, got, c.reads)
		}
	}
	for _, req := range []JobRequest{{Exp: "config"}, {Exp: "suite"}, {Exp: "nope"},
		{Exp: "f1", Request: Request{Workloads: []string{"doom"}}}} {
		if _, ok := PlanJob(req); ok {
			t.Errorf("%+v: planned", req)
		}
	}
}

// TestPlanJobCheck: Check holds a cell to the plan, refusing the cells a
// worker must refuse in a leased bundle.
func TestPlanJobCheck(t *testing.T) {
	_, f1 := testJob(t, "f1", "canneal", "streamcluster", "swaptions")
	_, a5 := testJob(t, "a5", "canneal")
	for _, c := range []struct {
		name     string
		plan     Job
		workload string
		ok       bool
	}{
		{"f1 over canneal", f1, "canneal", true},
		{"a5's whole spec", a5, "", true},
		{"workload outside the job", f1, "lu", false},
		{"per-workload spec without a workload", f1, "", false},
		{"whole-job spec with a workload", a5, "canneal", false},
	} {
		if err := c.plan.Check(c.workload); (err == nil) != c.ok {
			t.Errorf("%s: Check(%q) = %v, want ok %v", c.name, c.workload, err, c.ok)
		}
	}
}

// TestPlanJobTablesCountsTables: Tables refuses rows that do not hold one
// row slice per table of their cell's spec, rows of another kind and
// rows of another cell count, and renders one table per title.
func TestPlanJobTablesCountsTables(t *testing.T) {
	_, plan := testJob(t, "a2", "canneal", "swaptions")
	four := [][]PredictorRow{nil, nil, nil, nil}
	if tabs, err := plan.Tables([]any{four, [][]PredictorRow{nil, nil, nil, nil}}); err != nil || len(tabs) != 4 {
		t.Errorf("a2 with four tables per cell: %d tables, error %v; want 4 and none", len(tabs), err)
	}
	for _, rows := range [][]any{
		{four, [][]PredictorRow{nil, nil, nil}},
		{[][]PredictorRow{nil, nil, nil, nil, nil}, four},
		{[][]PredictorRow{}, [][]PredictorRow{}},
		{four, [][]PolicyRow{nil, nil, nil, nil}},
		{four},
	} {
		if _, err := plan.Tables(rows); err == nil {
			t.Errorf("a2 (4 tables, 2 cells) accepted %d cells' rows of %v tables", len(rows), rows)
		}
	}
}

// TestPlanJobMatchesRunExperiments: every planned experiment at the
// catalogue golden's request, run cell by cell through its plan the way
// a cluster worker runs it (a machine, a stream provider and a lane memo
// of its own), its rows shipped through the wire codec and merged by
// Tables, renders the bytes RunExperiments renders.
func TestPlanJobMatchesRunExperiments(t *testing.T) {
	type streamKey struct {
		m    workloads.Model
		seed uint64
	}
	var mu sync.Mutex
	built := map[streamKey]*Stream{}
	streams := func(_ context.Context, m workloads.Model, machine cache.Config, seed uint64) (*Stream, error) {
		mu.Lock()
		defer mu.Unlock()
		k := streamKey{m, seed}
		if built[k] == nil {
			st, err := BuildStream(m, machine, seed)
			if err != nil {
				return nil, err
			}
			built[k] = st
		}
		return built[k], nil
	}
	var ids []string
	for _, e := range Experiments() {
		if e.NeedsSuite() {
			ids = append(ids, e.ID)
		}
	}
	req := goldenRequest(ids[0], 1)
	cfg, err := req.Config(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Streams = streams
	var want [][]*report.Table
	if err := RunExperiments(context.Background(), cfg, ids, req.Options(), nil,
		func(ts []*report.Table) error { want = append(want, ts); return nil }); err != nil {
		t.Fatal(err)
	}
	worker := Config{Machine: cache.DefaultConfig(), Streams: streams, Lanes: NewLaneMemo()}
	for i, exp := range ids {
		plan, ok := PlanJob(goldenRequest(exp, 1))
		if !ok {
			t.Fatalf("%s: no plan", exp)
		}
		var rows []any
		for _, w := range plan.Cells {
			r, err := plan.Run(context.Background(), worker, w)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := EncodeRows(r)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := plan.Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, decoded)
		}
		got, err := plan.Tables(rows)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := tableJSON(t, got), tableJSON(t, want[i]); !bytes.Equal(g, w) {
			t.Errorf("%s: plan tables differ from RunExperiments'\nwant:\n%s\ngot:\n%s", exp, w, g)
		}
	}
}

package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"sharellc/internal/core"
	"sharellc/internal/par"
	"sharellc/internal/predictor"
	"sharellc/internal/report"
	"sharellc/internal/workloads"
)

// This file is the decomposition of the experiment index. Every
// experiment that reads streams is one tableSpec: one shared replay that
// computes typed rows for its tables and renders the merged rows into
// them. A spec runs either per workload, over a single-workload prepared
// suite, or once per job over a bare suite (whole). A job's plan
// (PlanJob) is that spec and its cells, one per workload; the in-process
// run (Job.runLocal) and a cluster worker both run each cell through
// Job.Run, and Job.Tables merges their rows. Merged tables are
// byte-identical to a run over any other split of the workloads: the rows
// of one workload do not depend on which other workloads share the
// suite, and the render step sees the full row slices in canonical suite
// order.

// tableSpec is an experiment's plan: one shared replay and the tables it
// renders. Run computes the spec's typed rows table-major — one row
// slice per table ([][]CharRow, [][]OracleRow, ...) — for every workload
// of the given suite, or once from its configuration for a whole spec;
// Render turns merged rows back into the exact tables the experiment
// index produces. All parametrization (LLC geometry, policy lists,
// protection strength) is captured when the spec is built by planFor, so
// coordinator and worker agree on it by construction.
type tableSpec struct {
	// Kind tags the row type for the wire codec (EncodeRows/DecodeRows).
	Kind string
	// Titles are the rendered tables' titles, one per table.
	Titles []string
	// whole marks a spec that runs once per job over the suite's
	// configuration rather than once per workload: it builds the streams
	// it reads itself, so it runs on a bare suite.
	whole bool
	// reads names the workloads whose request-seed streams a whole spec
	// prepares, so a scheduler can place those streams ahead of the run.
	reads []string
	Run   func(s *Suite) (any, error)
	// Render accepts the merged rows (nil renders empty tables) and
	// returns one table per title.
	Render func(rows any) []*report.Table
	codec  rowCodec
}

// tablesSpec builds a tableSpec of len(titles) tables from a typed runner
// and a one-table renderer.
func tablesSpec[T any](kind string, titles []string, run func(*Suite) ([][]T, error), render func(string, []T) *report.Table) tableSpec {
	return tableSpec{
		Kind:   kind,
		Titles: titles,
		codec:  codecOf[T](kind),
		Run:    func(s *Suite) (any, error) { return run(s) },
		Render: func(rows any) []*report.Table {
			typed, ok := rows.([][]T)
			if !ok {
				typed = make([][]T, len(titles))
			}
			out := make([]*report.Table, len(titles))
			for i, title := range titles {
				out[i] = render(title, typed[i])
			}
			return out
		},
	}
}

// newSpec builds a one-table tableSpec.
func newSpec[T any](kind, title string, run func(*Suite) ([]T, error), render func(string, []T) *report.Table) tableSpec {
	return tablesSpec(kind, []string{title}, func(s *Suite) ([][]T, error) {
		rows, err := run(s)
		return [][]T{rows}, err
	}, render)
}

// wholeSpec marks sp as running once per job, reading the request-seed
// streams of reads.
func wholeSpec(sp tableSpec, reads []string) tableSpec {
	sp.whole, sp.reads = true, reads
	return sp
}

// PlanFor is planFor as a one-spec list, the form the bench module reads.
func PlanFor(id string, o ExpOptions) ([]tableSpec, bool) {
	sp, ok := planFor(id, o)
	if !ok {
		return nil, false
	}
	return []tableSpec{sp}, true
}

// planFor returns the table plan for one experiment id under the given
// options. ok is false only for the static description tables (config,
// suite), which read no stream and run through Experiment.Run alone.
// m1 (multiprogrammed mixes) and a5 (per-seed sub-suites) build their
// own streams, so each is a whole-job spec.
func planFor(id string, o ExpOptions) (tableSpec, bool) {
	charSpec := func(title string, size int, render func(string, []CharRow) *report.Table) tableSpec {
		return newSpec("char", title,
			func(s *Suite) ([]CharRow, error) { return s.Characterize(size, o.LLCWays) }, render)
	}
	oracleSpec := func(titles []string, sizes, ways []int, names []string, opts ...core.Options) tableSpec {
		return tablesSpec("oracle", titles,
			func(s *Suite) ([][]OracleRow, error) { return s.oracleTables(sizes, ways, names, opts) }, oracleTable)
	}
	switch id {
	case "f1":
		return charSpec(fmt.Sprintf("F1: shared vs private LLC hits (%s LLC, LRU)", mbLabel(o.LLCSize)), o.LLCSize, charTable), true
	case "f2":
		return charSpec(fmt.Sprintf("F2: shared vs private LLC hits (%s LLC, LRU)", mbLabel(2*o.LLCSize)), 2*o.LLCSize, charTable), true
	case "f3":
		return charSpec(fmt.Sprintf("F3: sharing-degree distribution (%s LLC, LRU)", mbLabel(o.LLCSize)), o.LLCSize, degreeTable), true
	case "f4":
		return newSpec("policy", fmt.Sprintf("F4: policy comparison (%s LLC)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]PolicyRow, error) { return s.ComparePolicies(o.LLCSize, o.LLCWays, nil) },
			policyTable), true
	case "f5":
		// Both sizes in one spec: each workload decodes its pass
		// columns and builds both sizes' hint columns in one replay.
		sizes := []int{o.LLCSize, 2 * o.LLCSize}
		var titles []string
		for _, size := range sizes {
			titles = append(titles, fmt.Sprintf("F5/F6: oracle study (%s LLC, %s)", mbLabel(size), o.Prot.Strength))
		}
		return oracleSpec(titles, sizes, []int{o.LLCWays}, o.Policies, o.Prot), true
	case "f7":
		return newSpec("predictor", fmt.Sprintf("F7: fill-time sharing predictor accuracy (%s LLC, LRU)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]PredictorRow, error) {
				return s.PredictorAccuracy(o.LLCSize, o.LLCWays, predictor.DefaultConfig(), nil)
			},
			predictorTable), true
	case "f8":
		return newSpec("driven", fmt.Sprintf("F8: predictor-driven replacement (%s LLC, LRU base)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]DrivenRow, error) {
				return s.PredictorDriven(o.LLCSize, o.LLCWays, predictor.DefaultConfig(), nil, o.Prot)
			},
			drivenTable), true
	case "f9":
		return newSpec("phase", "F9: sharing-phase stability (16 windows)",
			func(s *Suite) ([]phaseRow, error) { return s.sharingPhases(0) }, phaseTable), true
	case "c1":
		return newSpec("coherence", "C1: coherence-protocol traffic (MESI directory)",
			func(s *Suite) ([]CoherenceRow, error) { return s.CoherenceCharacterize() }, coherenceTable), true
	case "c2":
		return newSpec("reuse", "C2: reuse-distance distribution by sharing class",
			func(s *Suite) ([]reuseRow, error) { return s.reuseDistances(o.LLCSize) }, reuseTable), true
	case "m1":
		return wholeSpec(newSpec("oracle", fmt.Sprintf("M1: oracle on multiprogrammed mixes (%s LLC)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]OracleRow, error) { return m1Rows(s, o) }, oracleTable), nil), true
	case "a1":
		insert, full := o.Prot, o.Prot
		insert.Strength, full.Strength = core.InsertOnly, core.Full
		var titles []string
		for _, p := range []core.Options{insert, full} {
			titles = append(titles, fmt.Sprintf("A1: oracle with %s protection (%s LLC)", p.Strength, mbLabel(o.LLCSize)))
		}
		return oracleSpec(titles, []int{o.LLCSize}, []int{o.LLCWays}, []string{"lru", "srrip"}, insert, full), true
	case "a2":
		var titles []string
		var cfgs []predictor.Config
		for _, bits := range []int{8, 11, 14, 17} {
			titles = append(titles, fmt.Sprintf("A2: predictor accuracy with 2^%d-entry tables (%s LLC)", bits, mbLabel(o.LLCSize)))
			cfgs = append(cfgs, predictor.Config{TableBits: bits})
		}
		return tablesSpec("predictor", titles, func(s *Suite) ([][]PredictorRow, error) {
			return s.predictorTables(o.LLCSize, o.LLCWays, cfgs, []string{"addr", "pc"})
		}, predictorTable), true
	case "a3":
		var titles []string
		ways := []int{8, 16, 32}
		for _, w := range ways {
			titles = append(titles, fmt.Sprintf("A3: oracle gain at %d-way associativity (%s LLC)", w, mbLabel(o.LLCSize)))
		}
		return oracleSpec(titles, []int{o.LLCSize}, ways, []string{"lru"}, o.Prot), true
	case "a4":
		return newSpec("horizon", fmt.Sprintf("A4: oracle gain vs sharing horizon (%s LLC, LRU)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]horizonRow, error) { return s.oracleHorizonSweep(o.LLCSize, o.LLCWays, nil, o.Prot) },
			horizonTable), true
	case "a5":
		return wholeSpec(newSpec("seed", fmt.Sprintf("A5: oracle gain across seeds (%s LLC, LRU)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]seedRow, error) { return a5Rows(s, o) }, seedTable), a5Workloads()), true
	}
	return tableSpec{}, false
}

// Job is the plan of one job: the one place that decides its cells,
// the suite each runs on and how their rows merge into its tables.
type Job struct {
	// Cells are the workloads the spec runs over, in merge order: the
	// suite's model order, or one empty workload for a whole spec. The
	// cluster leases one bundle per cell.
	Cells []string
	req   JobRequest
	spec  tableSpec
	reads map[string][]workloads.Model // unscaled: the cell's workload, or a whole spec's reads
}

// PlanJob plans the normalized job req. ok is false for an experiment
// without a table plan (config, suite) or a workload the suite lacks.
func PlanJob(req JobRequest) (Job, bool) {
	models, err := ModelsByName(req.Workloads)
	if err != nil {
		return Job{}, false
	}
	return planJob(req, req.Options(), models)
}

// planJob plans req.Exp under o over models (nil for the full suite), to
// run at req's seed and scale.
func planJob(req JobRequest, o ExpOptions, models []workloads.Model) (Job, bool) {
	sp, ok := planFor(req.Exp, o)
	if !ok {
		return Job{}, false
	}
	j := Job{req: req, spec: sp, reads: map[string][]workloads.Model{}}
	if sp.whole {
		j.Cells = []string{""}
		j.reads[""], _ = ModelsByName(sp.reads) // catalogue names
		return j, true
	}
	if len(models) == 0 {
		models = workloads.Suite()
	}
	for _, m := range models {
		j.Cells, j.reads[m.Name] = append(j.Cells, m.Name), []workloads.Model{m}
	}
	return j, true
}

// Check refuses a cell the plan does not hold: a workload on a whole
// spec, none on a per-workload spec, or a workload outside the job.
func (j Job) Check(workload string) error {
	if _, ok := j.reads[workload]; !ok {
		return fmt.Errorf("%q has no cell of workload %q", j.req.Exp, workload)
	}
	return nil
}

// Reads lists the scaled models whose request-seed streams the cell of
// workload reads, so a scheduler can place those streams ahead of the
// run.
func (j Job) Reads(workload string) []workloads.Model {
	out := make([]workloads.Model, len(j.reads[workload]))
	for i, m := range j.reads[workload] {
		out[i] = scaleModel(m, j.req.Scale)
	}
	return out
}

// Run returns the rows of the cell of workload: the one place a cell
// runs. cfg supplies the machine, the stream provider and the lane memo;
// the request supplies the seed, the scale and the models the cell
// reads, which a whole spec builds itself.
func (j Job) Run(ctx context.Context, cfg Config, workload string) (any, error) {
	if err := j.Check(workload); err != nil {
		return nil, err
	}
	cfg.Seed, cfg.Scale, cfg.Models = j.req.Seed, j.req.Scale, j.reads[workload]
	s, err := suiteFor(ctx, cfg, []tableSpec{j.spec})
	if err != nil {
		return nil, err
	}
	return j.spec.Run(s)
}

// Decode decodes a cell's wire rows (EncodeRows of Run), refusing rows
// without exactly one row slice per table.
func (j Job) Decode(data []byte) (any, error) {
	return j.spec.codec.decode(data, len(j.spec.Titles))
}

// Tables merges every cell's rows, given in the order of Cells, table
// by table, and renders them. Rows of another kind, table count or cell
// count are an error.
func (j Job) Tables(rows []any) ([]*report.Table, error) {
	if len(rows) != len(j.Cells) {
		return nil, fmt.Errorf("sim: rows of %d cells for a job of %d", len(rows), len(j.Cells))
	}
	var merged any
	for _, r := range rows {
		var err error
		if merged, err = j.spec.codec.merge(merged, r, len(j.spec.Titles)); err != nil {
			return nil, err
		}
	}
	return j.spec.Render(merged), nil
}

// runLocal runs every cell in process, at once on the process's worker
// pool, reports each finished cell to progress (when non-nil) and merges
// the rows.
func (j Job) runLocal(ctx context.Context, cfg Config, progress func(done, total int, label string)) ([]*report.Table, error) {
	rows := make([]any, len(j.Cells))
	var done atomic.Int64
	err := par.For(ctx, len(j.Cells), func(i int) error {
		r, err := j.Run(ctx, cfg, j.Cells[i])
		if err != nil {
			return err
		}
		rows[i] = r
		if progress != nil {
			progress(int(done.Add(1)), len(j.Cells), strings.TrimSpace(j.req.Exp+" "+j.Cells[i]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return j.Tables(rows)
}

// suiteFor is the one choice of the suite specs run on, for a job's cell
// and RunExperiments' preparation alike: cfg's streams when some spec
// runs per workload, a bare suite when all are whole (each builds what
// it reads), else none.
func suiteFor(ctx context.Context, cfg Config, specs []tableSpec) (*Suite, error) {
	for _, sp := range specs {
		if !sp.whole {
			return NewSuiteContext(ctx, cfg)
		}
	}
	if len(specs) == 0 {
		return nil, nil
	}
	return bareSuite(ctx, cfg)
}

// rowCodec decodes and merges one row kind's table-major rows for the
// cluster wire format. When tables is positive, decode and merge refuse
// rows of another table count.
type rowCodec struct {
	decode func(data []byte, tables int) (any, error)
	merge  func(dst, src any, tables int) (any, error)
}

// codecOf is the codec of kind's rows, of type T.
func codecOf[T any](kind string) rowCodec {
	count := func(v [][]T, tables int) (any, error) {
		if tables > 0 && len(v) != tables {
			return nil, fmt.Errorf("sim: %s rows of %d tables, want %d", kind, len(v), tables)
		}
		return v, nil
	}
	return rowCodec{
		decode: func(data []byte, tables int) (any, error) {
			var v [][]T
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&v); err != nil {
				return nil, fmt.Errorf("sim: decoding %s rows: %w", kind, err)
			}
			if _, err := dec.Token(); err != io.EOF {
				return nil, fmt.Errorf("sim: decoding %s rows: trailing data", kind)
			}
			return count(v, tables)
		},
		merge: func(dst, src any, tables int) (any, error) {
			s, ok := src.([][]T)
			if !ok {
				return nil, fmt.Errorf("sim: merging %T as %s rows", src, kind)
			}
			if dst == nil {
				return count(s, tables)
			}
			d := dst.([][]T)
			if _, err := count(s, len(d)); err != nil {
				return nil, err
			}
			for t := range d {
				d[t] = append(d[t], s[t]...)
			}
			return d, nil
		},
	}
}

// rowCodecs holds the codec of every row kind some plan renders.
var rowCodecs = map[string]rowCodec{}

func init() {
	for _, id := range ExperimentIDs() {
		if sp, ok := planFor(id, DefaultExpOptions()); ok {
			rowCodecs[sp.Kind] = sp.codec
		}
	}
}

// EncodeRows serializes one spec's table-major rows for the cluster wire
// as a JSON array of one row array per table: a table's position is its
// tag. Every row float is a guarded ratio or mean, never NaN
// or ±Inf, and Go's float64 JSON encoding round-trips every finite value
// bit for bit (−0 included), so a merged render is bit-identical to a
// local one. A non-finite value is an error rather than a changed row.
func EncodeRows(rows any) ([]byte, error) {
	b, err := json.Marshal(rows)
	if err != nil {
		return nil, fmt.Errorf("sim: encoding rows: %w", err)
	}
	return b, nil
}

// DecodeRows reverses EncodeRows for the given row kind. It decodes
// strictly into the kind's table-major rows: an unknown field, trailing
// bytes or a non-finite number token is an error.
func DecodeRows(kind string, data []byte) (any, error) {
	c, ok := rowCodecs[kind]
	if !ok {
		return nil, fmt.Errorf("sim: unknown row kind %q", kind)
	}
	return c.decode(data, 0)
}

// MergeRows appends src onto dst table by table (both the kind's
// table-major rows of the same table count; dst may be nil). Callers
// append workload by workload in canonical suite order, which
// reconstructs exactly the row order a whole-suite run produces.
func MergeRows(kind string, dst, src any) (any, error) {
	c, ok := rowCodecs[kind]
	if !ok {
		return nil, fmt.Errorf("sim: unknown row kind %q", kind)
	}
	return c.merge(dst, src, 0)
}

package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"sharellc/internal/core"
	"sharellc/internal/predictor"
	"sharellc/internal/report"
)

// This file is the decomposition of the experiment index. Every
// experiment that reads streams is described as an ordered list of
// TableSpecs: one spec per output table, each computing typed rows and
// rendering the merged rows into the final table. A spec runs either
// per workload, over a (possibly single-workload) prepared suite, or
// once per job over a BareSuite (Whole). The local path (Experiment.Run
// via planRun) and the cluster path (internal/cluster bundles) both
// execute the same specs, which is what makes a merged distributed run
// byte-identical to a single-process run: the rows of one workload do
// not depend on which other workloads share the suite, and the render
// step sees the full row slice in canonical suite order either way.

// TableSpec is one output table of an experiment's plan. Run computes
// the spec's typed rows ([]CharRow, []OracleRow, ...) for every workload
// of the given suite, or once from its configuration for a Whole spec;
// Render turns a merged row slice back into the
// exact table the experiment index produces. All parametrization (LLC
// geometry, policy lists, protection strength) is captured when the spec
// is built by PlanFor, so coordinator and worker agree on it by
// construction.
type TableSpec struct {
	// Kind tags the row type for the wire codec (EncodeRows/DecodeRows).
	Kind string
	// Title is the rendered table title, exposed for progress labels.
	Title string
	// Whole marks a spec that runs once per job over the suite's
	// configuration rather than once per workload: it builds the streams
	// it reads itself, so it runs on a BareSuite.
	Whole bool
	// Reads names the workloads whose request-seed streams a whole spec
	// prepares, so a scheduler can place those streams ahead of the run.
	Reads []string
	Run   func(s *Suite) (any, error)
	// Render accepts the merged rows (nil renders an empty table).
	Render func(rows any) *report.Table
}

// newSpec builds a TableSpec from a typed runner and renderer.
func newSpec[T any](kind, title string, run func(*Suite) ([]T, error), render func(string, []T) *report.Table) TableSpec {
	return TableSpec{
		Kind:  kind,
		Title: title,
		Run:   func(s *Suite) (any, error) { return run(s) },
		Render: func(rows any) *report.Table {
			typed, _ := rows.([]T)
			return render(title, typed)
		},
	}
}

// wholeSpec marks sp as running once per job, reading the request-seed
// streams of reads.
func wholeSpec(sp TableSpec, reads []string) []TableSpec {
	sp.Whole, sp.Reads = true, reads
	return []TableSpec{sp}
}

// PlanFor returns the table plan for one experiment id under the given
// options. ok is false only for the static description tables (config,
// suite), which read no stream and run through Experiment.Run alone.
// m1 (multiprogrammed mixes) and a5 (per-seed sub-suites) build their
// own streams, so each is one whole-job spec.
func PlanFor(id string, o ExpOptions) ([]TableSpec, bool) {
	charSpec := func(title string, size int, render func(string, []CharRow) *report.Table) TableSpec {
		return newSpec("char", title,
			func(s *Suite) ([]CharRow, error) { return s.Characterize(size, o.LLCWays) }, render)
	}
	oracleSpec := func(title string, size, ways int, names []string, prot ExpOptions) TableSpec {
		return newSpec("oracle", title,
			func(s *Suite) ([]OracleRow, error) { return s.OracleStudy(size, ways, names, prot.Prot) }, oracleTable)
	}
	switch id {
	case "f1":
		return []TableSpec{charSpec(fmt.Sprintf("F1: shared vs private LLC hits (%s LLC, LRU)", mbLabel(o.LLCSize)), o.LLCSize, charTable)}, true
	case "f2":
		return []TableSpec{charSpec(fmt.Sprintf("F2: shared vs private LLC hits (%s LLC, LRU)", mbLabel(2*o.LLCSize)), 2*o.LLCSize, charTable)}, true
	case "f3":
		return []TableSpec{charSpec(fmt.Sprintf("F3: sharing-degree distribution (%s LLC, LRU)", mbLabel(o.LLCSize)), o.LLCSize, degreeTable)}, true
	case "f4":
		return []TableSpec{newSpec("policy", fmt.Sprintf("F4: policy comparison (%s LLC)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]PolicyRow, error) { return s.ComparePolicies(o.LLCSize, o.LLCWays, nil) },
			policyTable)}, true
	case "f5":
		var specs []TableSpec
		for _, size := range []int{o.LLCSize, 2 * o.LLCSize} {
			specs = append(specs, oracleSpec(
				fmt.Sprintf("F5/F6: oracle study (%s LLC, %s)", mbLabel(size), o.Prot.Strength),
				size, o.LLCWays, o.Policies, o))
		}
		return specs, true
	case "f7":
		return []TableSpec{newSpec("predictor", fmt.Sprintf("F7: fill-time sharing predictor accuracy (%s LLC, LRU)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]PredictorRow, error) {
				return s.PredictorAccuracy(o.LLCSize, o.LLCWays, predictor.DefaultConfig(), nil)
			},
			predictorTable)}, true
	case "f8":
		return []TableSpec{newSpec("driven", fmt.Sprintf("F8: predictor-driven replacement (%s LLC, LRU base)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]DrivenRow, error) {
				return s.PredictorDriven(o.LLCSize, o.LLCWays, predictor.DefaultConfig(), nil, o.Prot)
			},
			drivenTable)}, true
	case "f9":
		return []TableSpec{newSpec("phase", "F9: sharing-phase stability (16 windows)",
			func(s *Suite) ([]PhaseRow, error) { return s.sharingPhases(0) }, phaseTable)}, true
	case "c1":
		return []TableSpec{newSpec("coherence", "C1: coherence-protocol traffic (MESI directory)",
			func(s *Suite) ([]CoherenceRow, error) { return s.CoherenceCharacterize() }, coherenceTable)}, true
	case "c2":
		return []TableSpec{newSpec("reuse", "C2: reuse-distance distribution by sharing class",
			func(s *Suite) ([]ReuseRow, error) { return s.reuseDistances(o.LLCSize) }, reuseTable)}, true
	case "m1":
		return wholeSpec(newSpec("oracle", fmt.Sprintf("M1: oracle on multiprogrammed mixes (%s LLC)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]OracleRow, error) { return m1Rows(s, o) }, oracleTable), nil), true
	case "a1":
		var specs []TableSpec
		for _, st := range []core.Strength{core.InsertOnly, core.Full} {
			opts := o
			opts.Prot.Strength = st
			specs = append(specs, oracleSpec(
				fmt.Sprintf("A1: oracle with %s protection (%s LLC)", st, mbLabel(o.LLCSize)),
				o.LLCSize, o.LLCWays, []string{"lru", "srrip"}, opts))
		}
		return specs, true
	case "a2":
		var specs []TableSpec
		for _, bits := range []int{8, 11, 14, 17} {
			cfg := predictor.DefaultConfig()
			cfg.TableBits = bits
			specs = append(specs, newSpec("predictor",
				fmt.Sprintf("A2: predictor accuracy with 2^%d-entry tables (%s LLC)", bits, mbLabel(o.LLCSize)),
				func(s *Suite) ([]PredictorRow, error) {
					return s.PredictorAccuracy(o.LLCSize, o.LLCWays, cfg, []string{"addr", "pc"})
				},
				predictorTable))
		}
		return specs, true
	case "a3":
		var specs []TableSpec
		for _, w := range []int{8, 16, 32} {
			specs = append(specs, oracleSpec(
				fmt.Sprintf("A3: oracle gain at %d-way associativity (%s LLC)", w, mbLabel(o.LLCSize)),
				o.LLCSize, w, []string{"lru"}, o))
		}
		return specs, true
	case "a4":
		return []TableSpec{newSpec("horizon", fmt.Sprintf("A4: oracle gain vs sharing horizon (%s LLC, LRU)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]HorizonRow, error) { return s.oracleHorizonSweep(o.LLCSize, o.LLCWays, nil, o.Prot) },
			horizonTable)}, true
	case "a5":
		return wholeSpec(newSpec("seed", fmt.Sprintf("A5: oracle gain across seeds (%s LLC, LRU)", mbLabel(o.LLCSize)),
			func(s *Suite) ([]seedRow, error) { return a5Rows(s, o) }, seedTable), a5Workloads()), true
	}
	return nil, false
}

// planRun adapts an experiment's plan back into the Experiment.Run
// signature: every spec runs over the whole suite and renders directly.
// Keeping the index entries on this path guarantees the local and
// distributed executions can never drift — there is only one definition
// of each table.
func planRun(id string) func(s *Suite, o ExpOptions) ([]*report.Table, error) {
	return func(s *Suite, o ExpOptions) ([]*report.Table, error) {
		specs, ok := PlanFor(id, o)
		if !ok {
			return nil, fmt.Errorf("sim: experiment %q has no table plan", id)
		}
		out := make([]*report.Table, 0, len(specs))
		for _, sp := range specs {
			rows, err := sp.Run(s)
			if err != nil {
				return nil, err
			}
			out = append(out, sp.Render(rows))
		}
		return out, nil
	}
}

// rowCodec decodes and merges one row kind for the cluster wire format.
type rowCodec struct {
	decode func(data []byte) (any, error)
	merge  func(dst, src any) any
}

var rowCodecs = map[string]rowCodec{}

func registerRows[T any](kind string) {
	rowCodecs[kind] = rowCodec{
		decode: func(data []byte) (any, error) {
			var v []T
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&v); err != nil {
				return nil, fmt.Errorf("sim: decoding %s rows: %w", kind, err)
			}
			if _, err := dec.Token(); err != io.EOF {
				return nil, fmt.Errorf("sim: decoding %s rows: trailing data", kind)
			}
			return v, nil
		},
		merge: func(dst, src any) any {
			if dst == nil {
				return src
			}
			return append(dst.([]T), src.([]T)...)
		},
	}
}

func init() {
	registerRows[CharRow]("char")
	registerRows[PolicyRow]("policy")
	registerRows[OracleRow]("oracle")
	registerRows[PredictorRow]("predictor")
	registerRows[DrivenRow]("driven")
	registerRows[ReuseRow]("reuse")
	registerRows[CoherenceRow]("coherence")
	registerRows[PhaseRow]("phase")
	registerRows[HorizonRow]("horizon")
	registerRows[seedRow]("seed")
}

// EncodeRows serializes one spec's typed row slice for the cluster wire
// as a JSON array. Every row float is a guarded ratio or mean, never NaN
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
// strictly into the kind's row slice: an unknown field, trailing bytes or
// a non-finite number token is an error.
func DecodeRows(kind string, data []byte) (any, error) {
	c, ok := rowCodecs[kind]
	if !ok {
		return nil, fmt.Errorf("sim: unknown row kind %q", kind)
	}
	return c.decode(data)
}

// MergeRows appends src onto dst (both slices of the kind's row type;
// dst may be nil). Callers append workload by workload in canonical
// suite order, which reconstructs exactly the row order a whole-suite
// run produces.
func MergeRows(kind string, dst, src any) (any, error) {
	c, ok := rowCodecs[kind]
	if !ok {
		return nil, fmt.Errorf("sim: unknown row kind %q", kind)
	}
	return c.merge(dst, src), nil
}

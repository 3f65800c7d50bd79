package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"sharellc/internal/core"
	"sharellc/internal/predictor"
	"sharellc/internal/report"
)

// This file is the distributed decomposition of the experiment index.
// Every per-workload experiment is described as an ordered list of
// TableSpecs: one spec per output table, each computing typed rows over
// a (possibly single-workload) suite and rendering the merged rows into
// the final table. The local path (Experiment.Run via planRun) and the
// cluster path (internal/cluster bundles) both execute the same specs,
// which is what makes a merged distributed run byte-identical to a
// single-process run: the rows of one workload do not depend on which
// other workloads share the suite, and the render step sees the full
// row slice in canonical suite order either way.

// TableSpec is one output table of a sliceable experiment. Run computes
// the spec's typed rows ([]CharRow, []OracleRow, ...) for every workload
// of the given suite; Render turns a merged row slice back into the
// exact table the experiment index produces. All parametrization (LLC
// geometry, policy lists, protection strength) is captured when the spec
// is built by PlanFor, so coordinator and worker agree on it by
// construction.
type TableSpec struct {
	// Kind tags the row type for the wire codec (EncodeRows/DecodeRows).
	Kind string
	// Title is the rendered table title, exposed for progress labels.
	Title string
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

// PlanFor returns the distributed plan for one experiment id under the
// given options. ok is false for experiments that do not decompose by
// workload: the static description tables (config, suite) and the
// experiments that build their own streams (m1's multiprogrammed mixes,
// a5's per-seed sub-suites); those run as one opaque unit through
// Experiment.Run instead.
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
			func(s *Suite) ([]PhaseRow, error) { return s.SharingPhases(0) }, phaseTable)}, true
	case "c1":
		return []TableSpec{newSpec("coherence", "C1: coherence-protocol traffic (MESI directory)",
			func(s *Suite) ([]CoherenceRow, error) { return s.CoherenceCharacterize() }, coherenceTable)}, true
	case "c2":
		return []TableSpec{newSpec("reuse", "C2: reuse-distance distribution by sharing class",
			func(s *Suite) ([]ReuseRow, error) { return s.ReuseDistances(o.LLCSize) }, reuseTable)}, true
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

// BareSuite returns a suite carrying cfg and ctx but no prepared
// streams. It exists for the whole-experiment cluster bundles whose
// runners read only the configuration — m1 builds its own mix streams
// and a5 its own per-seed sub-suites — so a worker does not pay a full
// suite preparation for rows that would never touch it. Running a
// stream-consuming experiment on a bare suite is a programming error.
func BareSuite(ctx context.Context, cfg Config) *Suite {
	return &Suite{Config: cfg, ctx: ctx}
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
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
				return nil, fmt.Errorf("sim: decoding %s rows: %w", kind, err)
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
}

// EncodeRows serializes one spec's typed row slice for the cluster wire.
// gob round-trips every float64 bit pattern (including NaN and ±Inf,
// which JSON would reject), so a merged render is bit-identical to a
// local one.
func EncodeRows(rows any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rows); err != nil {
		return nil, fmt.Errorf("sim: encoding rows: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeRows reverses EncodeRows for the given row kind.
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

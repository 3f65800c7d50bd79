// Package sharellc is a trace-driven simulation library for studying
// sharing-aware last-level cache (LLC) replacement in chip
// multiprocessors. It reproduces the system of Natarajan & Chaudhuri,
// "Characterizing multi-threaded applications for designing sharing-aware
// last-level cache replacement policies" (IISWC 2013):
//
//   - a synthetic multi-threaded workload suite modelled on PARSEC,
//     SPLASH-2 and SPEC OMP (Workloads, WorkloadByName),
//   - a functional CMP memory system: per-core L1/L2 and a shared LLC
//     (MachineConfig, NewSuite),
//   - a catalogue of replacement policies from LRU to SHiP plus Belady
//     OPT (PolicyNames, PolicyByName),
//   - residency-level sharing characterization (Suite.Characterize),
//   - the paper's generic sharing oracle, attachable to any policy
//     (Suite.OracleStudy, OracleRun),
//   - realistic address- and PC-indexed fill-time sharing predictors
//     (Suite.PredictorAccuracy, Suite.PredictorDriven), and
//   - the sharing-aware protection wrapper itself (NewSharingAware).
//
// # Quick start
//
//	cfg := sharellc.DefaultConfig()
//	cfg.Models = []sharellc.Model{sharellc.MustWorkload("canneal")}
//	suite, err := sharellc.NewSuite(cfg)
//	if err != nil { ... }
//	rows, err := suite.OracleStudy(4*sharellc.MB, 16, []string{"lru"},
//		sharellc.ProtectorOptions{Strength: sharellc.Full})
//
// Everything is deterministic: all randomness derives from Config.Seed.
//
// The cmd/sharesim binary drives every experiment of the paper from the
// command line; DESIGN.md maps experiments to modules and EXPERIMENTS.md
// records reproduced-vs-paper results.
package sharellc

import (
	"context"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/oracle"
	"sharellc/internal/policy"
	"sharellc/internal/predictor"
	"sharellc/internal/sharing"
	"sharellc/internal/sim"
	"sharellc/internal/workloads"
)

// Byte-size helpers for configuration literals.
const (
	KB = cache.KB
	MB = cache.MB
)

// Core simulation types, aliased from the implementation packages so the
// whole public surface lives in one importable package.
type (
	// Config describes one experimental setup: machine, seed, workload
	// scale and workload list.
	Config = sim.Config
	// MachineConfig is the CMP memory-system geometry.
	MachineConfig = cache.Config
	// Model is one synthetic application.
	Model = workloads.Model
	// Suite holds prepared LLC reference streams and runs experiments.
	Suite = sim.Suite
	// Stream is one workload's LLC reference stream.
	Stream = sim.Stream

	// Policy is the replacement-policy contract of the simulated LLC.
	Policy = cache.Policy
	// PolicyFactory builds fresh policy instances.
	PolicyFactory = policy.Factory

	// ProtectorOptions configures the sharing-aware wrapper.
	ProtectorOptions = core.Options
	// ProtectorStats counts the wrapper's interventions.
	ProtectorStats = core.Stats
	// Strength selects insertion-only or full protection.
	Strength = core.Strength

	// Predictor is a fill-time sharing predictor.
	Predictor = predictor.Predictor
	// PredictorConfig sizes a table predictor.
	PredictorConfig = predictor.Config

	// CharRow, PolicyRow, OracleRow, PredictorRow and DrivenRow are the
	// typed results of the five experiment families.
	CharRow      = sim.CharRow
	PolicyRow    = sim.PolicyRow
	OracleRow    = sim.OracleRow
	PredictorRow = sim.PredictorRow
	DrivenRow    = sim.DrivenRow

	// OracleResult pairs the base and oracle passes of one study.
	OracleResult = oracle.Result
)

// Protection strengths.
const (
	// InsertOnly promotes predicted-shared fills but never redirects
	// victim selection.
	InsertOnly = core.InsertOnly
	// Full adds victim exclusion for protected blocks.
	Full = core.Full
)

// DefaultConfig returns the paper's setup: an 8-core CMP with 32 KB L1D
// and 256 KB L2 per core, a 4 MB 16-way shared LLC (experiments take the
// LLC size as an argument, e.g. 8 MB), seed 1, full-size workloads and
// the full suite.
func DefaultConfig() Config { return sim.DefaultConfig() }

// DefaultMachine returns the paper's 4 MB-LLC machine geometry.
func DefaultMachine() MachineConfig { return cache.DefaultConfig() }

// NewSuite generates and prepares every workload's LLC reference stream
// (in parallel across CPUs).
func NewSuite(cfg Config) (*Suite, error) { return sim.NewSuite(cfg) }

// Workloads returns the full synthetic application suite.
func Workloads() []Model { return workloads.Suite() }

// WorkloadByName returns the named suite application.
func WorkloadByName(name string) (Model, error) { return workloads.ByName(name) }

// MustWorkload is WorkloadByName for literals; it panics on unknown names.
func MustWorkload(name string) Model {
	m, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// WorkloadNames lists the suite's application names.
func WorkloadNames() []string { return workloads.Names() }

// PolicyNames lists the replacement-policy catalogue in presentation
// order (LRU first, Belady OPT last).
func PolicyNames() []string { return policy.Names(1) }

// PolicyByName returns a factory for the named catalogue policy; seed
// drives the stochastic policies (Random, BIP, BRRIP, DRRIP).
func PolicyByName(name string, seed uint64) (PolicyFactory, error) {
	return policy.ByName(name, seed)
}

// NewSharingAware wraps any base policy with the paper's sharing-aware
// protection mechanism. Its Fill is unhinted: each fill's sharing hint
// goes to FillHinted beside the access, from the oracle or predictor
// that drives the lane.
func NewSharingAware(base Policy, opts ProtectorOptions) *core.Protector {
	return core.NewProtectorOpts(base, opts)
}

// MultiprogrammedOracle runs the sharing oracle over multiprogrammed
// mixes of independent single-threaded programs (the paper's motivating
// contrast — expect no shared hits and no gain).
func MultiprogrammedOracle(mixes [][]Model, machine MachineConfig, seed uint64, llcSize, llcWays int, opts ProtectorOptions) ([]OracleRow, error) {
	return sim.MultiprogrammedOracle(context.Background(), mixes, machine, seed, llcSize, llcWays, opts)
}

// OracleRun performs the paper's two-pass oracle study for one policy on
// one prepared stream at the default sharing horizon: a bare-base pass,
// then a pass in which every fill receives the oracle's sharing hint,
// both lanes of one fused replay.
func OracleRun(st *Stream, llcSize, llcWays int, newPolicy func() Policy, opts ProtectorOptions) (*OracleResult, error) {
	lanes, collect, err := oracle.Lanes(st.Accesses, st.NumBlocks, []sharing.LLCConfig{{Size: llcSize, Ways: llcWays, NewPolicy: newPolicy}},
		[]oracle.Cell{{Opts: opts, Factor: oracle.HorizonFactor}})
	if err != nil {
		return nil, err
	}
	results, err := sharing.ReplayMulti(st.Accesses, lanes, sharing.Options{})
	if err != nil {
		return nil, err
	}
	return collect(results)[0], nil
}

// NewAddressPredictor builds the block-address-indexed fill-time sharing
// predictor.
func NewAddressPredictor(cfg PredictorConfig) (Predictor, error) {
	return predictor.NewAddress(cfg)
}

// NewPCPredictor builds the program-counter-indexed fill-time sharing
// predictor.
func NewPCPredictor(cfg PredictorConfig) (Predictor, error) {
	return predictor.NewPC(cfg)
}

// DefaultPredictorConfig returns the 16K-entry, 2-bit-counter predictor
// table used by the paper-style studies.
func DefaultPredictorConfig() PredictorConfig { return predictor.DefaultConfig() }

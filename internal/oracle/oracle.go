// Package oracle implements the paper's generic sharing oracle study: a
// two-pass experiment that quantifies, for any base replacement policy,
// the headroom available from perfect fill-time knowledge of sharing.
//
// Pass 1 replays the LLC stream under the bare base policy and records,
// for every fill, whether that residency became shared (≥ 2 cores). Pass 2
// replays the identical stream with the base policy wrapped in the
// sharing-aware protector (internal/core), feeding each fill the recorded
// bit. This matches the paper's oracle definition: "the LLC controller
// [can] accurately predict, at the time a block is filled into the LLC,
// whether the block will be shared during its residency in the LLC" —
// residency outcomes are defined by the base policy's own eviction
// schedule, exactly as a wrapper-style oracle must.
package oracle

import (
	"context"
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/sharing"
	"sharellc/internal/trace"
)

// Result pairs the two passes of one oracle study.
type Result struct {
	Base   *sharing.Result // pass 1: bare policy
	Oracle *sharing.Result // pass 2: policy + oracle protection
	Stats  core.Stats      // protector intervention counters from pass 2
}

// MissReduction returns the fractional reduction in LLC misses achieved
// by adding the oracle: (baseMisses - oracleMisses) / baseMisses. It is
// negative when protection hurt (possible for already-sharing-friendly
// policies), and 0 for a missless base run.
func (r *Result) MissReduction() float64 {
	if r.Base.Misses == 0 {
		return 0
	}
	return float64(int64(r.Base.Misses)-int64(r.Oracle.Misses)) / float64(r.Base.Misses)
}

// HorizonFactor scales the sharing-lookahead horizon: a block is hinted
// shared at stream index i when another core touches it within
// HorizonFactor × (LLC capacity in blocks) stream positions. An LLC
// residency spans roughly one capacity's worth of fills, and fills are a
// fraction of stream accesses, so a small multiple of the capacity is the
// natural residency-scale window.
const HorizonFactor = 4

// SharedHints computes, for every position i of the LLC stream, whether
// block stream[i].Block is accessed by a core other than stream[i].Core
// within the next horizon stream positions. This is the oracle's
// knowledge: a pure trace property, so it stays valid at whatever point
// the protected run's fills diverge from the base run's (unlike
// residency-outcome bits, which are only defined for the base schedule's
// own fills).
//
// The same-block successor positions are exactly the stream's NextUse
// chain, so annotated streams (cache.AnnotateNextUse — the standard
// pipeline) need no per-block position index at all; unannotated streams
// are copied and annotated on the fly.
func SharedHints(stream []cache.AccessInfo, horizon int64) []bool {
	hints := make([]bool, len(stream))
	for i := range stream {
		// NextUse always points strictly forward, so a zero anywhere
		// means the stream was never annotated.
		if stream[i].NextUse == 0 {
			cp := make([]cache.AccessInfo, len(stream))
			copy(cp, stream)
			cache.AnnotateNextUse(cp)
			stream = cp
			break
		}
	}
	for i := range stream {
		c := stream[i].Core
		for j := stream[i].NextUse; j != cache.NoNextUse && j-int64(i) <= horizon; j = stream[j].NextUse {
			if stream[j].Core != c {
				hints[i] = true
				break
			}
		}
	}
	return hints
}

// hintHook builds the pass-2 fill-time oracle hook for one horizon: the
// hints are a pure trace property, so one slice serves every policy lane
// at the same horizon.
func hintHook(stream []cache.AccessInfo, llcSize int, horizonFactor int) sharing.Hooks {
	horizon := int64(horizonFactor) * int64(llcSize/trace.BlockSize)
	hints := SharedHints(stream, horizon)
	return sharing.Hooks{PredictShared: func(a cache.AccessInfo) bool { return hints[a.Index] }}
}

// protectedLane builds the pass-2 lane for one base-policy factory,
// stashing the protector so its intervention counters can be read after
// the fused replay. Hook lanes call NewPolicy exactly once (the
// LLCConfig contract), so the stash is filled exactly once.
func protectedLane(llcSize, llcWays int, newPolicy func() cache.Policy, opts core.Options, hooks sharing.Hooks, stash **core.Protector) sharing.LLCConfig {
	return sharing.LLCConfig{Size: llcSize, Ways: llcWays, Hooks: hooks,
		NewPolicy: func() cache.Policy {
			p := core.NewProtectorOpts(newPolicy(), opts)
			*stash = p
			return p
		}}
}

// RunMultiPolicies runs the two-pass oracle study for every base-policy
// factory in one fused replay over the stream: 2n lanes (n bare pass-1
// lanes plus n protected pass-2 lanes) share the stream walk, and the
// sharing hints are computed once — they are a trace property, identical
// for every policy at the same horizon. Results are returned in factory
// order, each bit-identical to the study of that factory alone — a
// one-factory call is the single-policy study. newPolicy factories must
// return a fresh instance on each call (the two passes must not share
// trained state). ropt carries the replay tuning (Shards, Partitioner,
// Cores, NumBlocks — see sharing.Options); its Ctx is overridden by ctx,
// and cancelling ctx aborts the study at the replay's next poll.
func RunMultiPolicies(ctx context.Context, stream []cache.AccessInfo, llcSize, llcWays int, factories []func() cache.Policy, opts core.Options, horizonFactor int, ropt sharing.Options) ([]*Result, error) {
	if horizonFactor < 1 {
		return nil, fmt.Errorf("oracle: horizon factor %d < 1", horizonFactor)
	}
	n := len(factories)
	hooks := hintHook(stream, llcSize, horizonFactor)
	configs := make([]sharing.LLCConfig, 2*n)
	prots := make([]*core.Protector, n)
	for i, f := range factories {
		configs[i] = sharing.LLCConfig{Size: llcSize, Ways: llcWays, NewPolicy: f}
		configs[n+i] = protectedLane(llcSize, llcWays, f, opts, hooks, &prots[i])
	}
	ropt.Ctx = ctx
	results, err := sharing.ReplayMulti(stream, configs, ropt)
	if err != nil {
		return nil, fmt.Errorf("oracle: fused study: %w", err)
	}
	out := make([]*Result, n)
	for i := range out {
		out[i] = &Result{Base: results[i], Oracle: results[n+i], Stats: prots[i].Stats()}
	}
	return out, nil
}

// RunMultiHorizons sweeps the sharing horizon for one base policy in one
// fused replay: a single bare pass-1 lane plus one protected lane per
// horizon factor. The returned results (one per factor, in order) share
// the same Base, and each matches a one-factory RunMultiPolicies at that
// factor (the A4 ablation). ropt is treated exactly as in
// RunMultiPolicies.
func RunMultiHorizons(ctx context.Context, stream []cache.AccessInfo, llcSize, llcWays int, newPolicy func() cache.Policy, opts core.Options, factors []int, ropt sharing.Options) ([]*Result, error) {
	n := len(factors)
	configs := make([]sharing.LLCConfig, n+1)
	configs[0] = sharing.LLCConfig{Size: llcSize, Ways: llcWays, NewPolicy: newPolicy}
	prots := make([]*core.Protector, n)
	for i, f := range factors {
		if f < 1 {
			return nil, fmt.Errorf("oracle: horizon factor %d < 1", f)
		}
		configs[i+1] = protectedLane(llcSize, llcWays, newPolicy, opts, hintHook(stream, llcSize, f), &prots[i])
	}
	ropt.Ctx = ctx
	results, err := sharing.ReplayMulti(stream, configs, ropt)
	if err != nil {
		return nil, fmt.Errorf("oracle: fused horizon sweep: %w", err)
	}
	out := make([]*Result, n)
	for i := range out {
		out[i] = &Result{Base: results[0], Oracle: results[i+1], Stats: prots[i].Stats()}
	}
	return out, nil
}

package server

import (
	"context"

	"sharellc/internal/cache"
	"sharellc/internal/cluster"
	"sharellc/internal/core"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// defaultRunner builds the production Runner: it resolves the request
// against the shared experiment index (the same catalogue cmd/sharesim
// dispatches through, which is what makes daemon output bit-identical to
// `sharesim -json`) and budgets per-replay set shards so that
// workers × shards never oversubscribes GOMAXPROCS. When sc is non-nil
// it serves every suite's streams, so concurrent and sequential jobs
// sharing (machine, seed, scale, workloads) build each stream at most
// once per process regardless of their LLC size or policy.
func defaultRunner(workers int, sc *streamcache.Cache) Runner {
	shards := sim.ShardBudget(workers)
	return func(ctx context.Context, req Request, progress func(done, total int, label string)) ([]*report.Table, error) {
		exp, err := sim.ExperimentByID(req.Exp)
		if err != nil {
			return nil, err
		}
		opts := sim.ExpOptions{
			LLCSize:  int(req.LLCMB * float64(cache.MB)),
			LLCWays:  req.Ways,
			Policies: req.Policies,
			Prot:     core.Options{Strength: core.Full},
		}
		if req.Strength == "insert-only" {
			opts.Prot.Strength = core.InsertOnly
		}

		var suite *sim.Suite
		if exp.NeedsSuite {
			models, err := sim.ModelsByName(req.Workloads)
			if err != nil {
				return nil, err
			}
			cfg := sim.Config{
				Machine: cache.DefaultConfig(),
				Seed:    req.Seed,
				Scale:   req.Scale,
				Models:  models,
				Shards:  shards,
				// Suite preparation reports through the same progress
				// channel as the experiment fan-out; the "prepare" prefix
				// distinguishes the phase in the SSE stream.
				Progress: func(done, total int, label string) {
					progress(done, total, "prepare "+label)
				},
			}
			if sc != nil {
				cfg.Streams = sc.Stream
			}
			suite, err = sim.NewSuiteContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			suite = suite.WithProgress(progress)
		}
		return exp.Run(suite, opts)
	}
}

// distributedRunner routes jobs through the cluster coordinator instead
// of the in-process pool: the request maps 1:1 onto a cluster.Request
// (same normalization, so identical jobs coalesce in both layers) and the
// merged tables come back byte-identical to what defaultRunner produces.
func distributedRunner(c *cluster.Coordinator) Runner {
	return func(ctx context.Context, req Request, progress func(done, total int, label string)) ([]*report.Table, error) {
		creq := cluster.Request{
			Exps:      []string{req.Exp},
			LLCMB:     req.LLCMB,
			Ways:      req.Ways,
			Seed:      req.Seed,
			Scale:     req.Scale,
			Workloads: req.Workloads,
			Policies:  req.Policies,
			Strength:  req.Strength,
		}
		return c.Run(ctx, creq, progress)
	}
}

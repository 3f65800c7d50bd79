package server

import (
	"context"

	"sharellc/internal/cache"
	"sharellc/internal/cluster"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// defaultRunner builds the production Runner: it runs the request through
// sim.RunExperiments, the direct path cmd/sharesim takes too (which is
// what makes daemon output bit-identical to `sharesim -json` for the same
// knobs), and budgets per-replay set shards so that workers × shards
// never oversubscribes GOMAXPROCS. When sc is non-nil it serves every
// suite's streams, so concurrent and sequential jobs sharing (machine,
// seed, scale, workloads) build each stream at most once per process
// regardless of their LLC size or policy.
func defaultRunner(workers int, sc *streamcache.Cache) Runner {
	shards := sim.ShardBudget(workers)
	return func(ctx context.Context, req sim.JobRequest, progress func(done, total int, label string)) ([]*report.Table, error) {
		cfg, err := req.Config(cache.DefaultConfig())
		if err != nil {
			return nil, err
		}
		cfg.Shards = shards
		// Suite preparation reports through the same progress channel as
		// the experiment fan-out; the "prepare" prefix distinguishes the
		// phase in the SSE stream.
		cfg.Progress = func(done, total int, label string) {
			progress(done, total, "prepare "+label)
		}
		if sc != nil {
			cfg.Streams = sc.Stream
		}
		var out []*report.Table
		err = sim.RunExperiments(ctx, cfg, []string{req.Exp}, req.Options(), progress,
			func(tables []*report.Table) error { out = tables; return nil })
		return out, err
	}
}

// distributedRunner routes jobs through the cluster coordinator instead
// of the in-process pool. The coordinator runs the normalized job it is
// handed, one Run per job the Manager admits, and its merged tables come
// back byte-identical to what defaultRunner produces.
func distributedRunner(c *cluster.Coordinator) Runner {
	return func(ctx context.Context, req sim.JobRequest, progress func(done, total int, label string)) ([]*report.Table, error) {
		return c.Run(ctx, cluster.Request{JobRequest: req}, progress)
	}
}

package server

import (
	"context"

	"sharellc/internal/cache"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// defaultRunner builds the production runner: it runs the request through
// sim.RunExperiments, the path cmd/sharesim takes too (which is what
// makes daemon output bit-identical to `sharesim -json` for the same
// knobs): the job's cells, one per workload, run at once in process and
// merge as a cluster job's do, and their lanes draw on the process's one
// worker pool (internal/par). When sc is non-nil it serves every
// suite's streams, so concurrent and sequential jobs sharing (machine,
// seed, scale, workloads) build each stream at most once per process
// regardless of their LLC size or policy. Every job's suite shares the
// lane memo lanes, so a lane that an earlier job replayed over the same
// stream at the same or a higher tier is not replayed again.
func defaultRunner(sc *streamcache.Cache, lanes *sim.LaneMemo) runner {
	return func(ctx context.Context, req sim.JobRequest, progress func(done, total int, label string)) ([]*report.Table, error) {
		cfg, err := req.Config(cache.DefaultConfig())
		if err != nil {
			return nil, err
		}
		// Suite preparation reports through the same progress channel as
		// the finished cells; the "prepare" prefix distinguishes the
		// phase in the SSE stream.
		cfg.Progress = func(done, total int, label string) {
			progress(done, total, "prepare "+label)
		}
		if sc != nil {
			cfg.Streams = sc.Stream
		}
		cfg.Lanes = lanes
		var out []*report.Table
		err = sim.RunExperiments(ctx, cfg, []string{req.Exp}, req.Options(), progress,
			func(tables []*report.Table) error { out = tables; return nil })
		return out, err
	}
}

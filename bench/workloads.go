package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workload is one in-process workload: requests run through the
// experiment index exactly as sharesim dispatches them, each table
// rendered and checked against the golden.
type workload struct {
	name   string
	warmup []request // run once, untimed, so lazy set-up and heap growth are done
	reqs   []request // one timed iteration
	// cold: each iteration first builds the suite into an empty snapshot
	// directory, and set-up is the reload from the snapshots it wrote.
	cold bool
	// nominalS is the time one timed iteration is sized for on a 2-core
	// host; a run makes max(1, seconds/nominalS) of them, a fixed count,
	// so every run of a workload does the same work.
	nominalS float64
}

var (
	reqF1 = request{Exp: "f1"}
	reqF4 = request{Exp: "f4"}
	reqF5 = request{Exp: "f5", Policies: []string{"lru"}}
	reqF8 = request{Exp: "f8"}
)

var inProcess = []workload{
	{name: "policy_sweep", warmup: []request{reqF1, reqF4}, reqs: []request{reqF1, reqF4}, nominalS: 4},
	// F5 allocates what F8 reuses, so warming with F5 alone is enough.
	{name: "oracle_predictor", warmup: []request{reqF5}, reqs: []request{reqF5, reqF8}, nominalS: 12},
	{name: "cold_build", cold: true, reqs: []request{{Exp: "f9"}, {Exp: "c1"}, {Exp: "c2"}}, nominalS: 12},
}

// probeApps are the applications the per-layer probes run on, at full
// size: the suite's highest and lowest LLC miss rates among the large
// streams, which average to the suite's own, together a ninth of its LLC
// accesses. The issue asks for all 22; that takes over a minute a run, and
// every traced run must make every per-layer metric.
var probeApps = []string{"canneal", "barnes"}

// run holds what every workload of one invocation shares.
type run struct {
	ctx       context.Context
	workload  string
	seed      uint64 // as given: orders the service job list
	stream    uint64 // the stream seed derived from it: traces and stochastic policies
	seconds   float64
	scale     float64
	inputs    string // snapshot store prepared once per checkout and stream seed
	workDir   string // fresh for this invocation, removed at exit
	sharesimd string
	g         *golden
	tr        *tracer

	// the layers' estimated split of this workload's experiments on the
	// probe suite, and what those experiments took, for the summary
	est      map[string]float64
	estWallS float64
}

// loadTimes runs load five times and returns each duration in seconds.
// Before each load, drop lets go of the previous one's result and the
// garbage is collected, untimed, so the later loads reuse the heap the
// first one grew: on this host touching fresh memory costs
// anything from 0.2 to 17 µs a page, and that, not the load, would be what
// the median reports.
func loadTimes(drop func(), load func() error) ([]float64, error) {
	out := make([]float64, 5)
	for i := range out {
		drop()
		runtime.GC()
		t0 := time.Now()
		if err := load(); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0).Seconds()
	}
	return out, nil
}

// serve runs reqs on su in order and checks every table. A request that
// fails is counted, not fatal.
func (r *run) serve(parent *span, su *suite, reqs []request) {
	for _, req := range reqs {
		sp := r.tr.begin(parent, "sim.request:"+req.Exp)
		tabs, err := su.render(req)
		key := req
		key.Seed, key.Scale = r.stream, r.scale
		if err != nil {
			r.g.failOp(fmt.Sprintf("%s %s: %v", r.workload, key.key(), err))
		}
		for i, t := range tabs {
			r.g.check(r.workload, fmt.Sprintf("%s#%d", key.key(), i), t)
		}
		r.tr.end(sp, map[string]float64{"tables": float64(len(tabs))})
	}
}

// inProcessRun measures one in-process workload with tracing off.
func (r *run) inProcessRun(w workload) (metricSet, error) {
	ms := metricSet{}
	iters := max(1, int(r.seconds/w.nominalS))
	var su *suite

	if !w.cold {
		// Set-up is the suite load from the prepared snapshots, five
		// times over; the last suite is the one the iterations use.
		loads, err := loadTimes(func() { su = nil }, func() error {
			var err error
			su, err = openSuite(r.ctx, r.inputs, r.stream, r.scale, nil)
			if err == nil && su.builds != 0 {
				err = fmt.Errorf("prepared store %s had to build %d streams", r.inputs, su.builds)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		ms["setup_s"] = median(loads)
		r.serve(nil, su, w.warmup)
	}

	var wall, cpu []float64
	var coldDir string
	for i := 0; i < iters; i++ {
		cpu0, t0 := cpuSeconds(), time.Now()
		if w.cold {
			su = nil // let the previous iteration's streams go
			coldDir = filepath.Join(r.workDir, fmt.Sprintf("cold-%d", i))
			var err error
			if su, err = openSuite(r.ctx, coldDir, r.stream, r.scale, nil); err != nil {
				return nil, err
			}
			if int(su.builds) != su.apps() {
				r.g.failOp(fmt.Sprintf("cold_build: %d streams built in an empty store, want %d", su.builds, su.apps()))
			}
		}
		r.serve(nil, su, w.reqs)
		wall, cpu = append(wall, time.Since(t0).Seconds()), append(cpu, cpuSeconds()-cpu0)
	}

	if w.cold {
		// What the next invocation pays before its first request: a new
		// stream cache on the directory just written, and a suite reload.
		loads, err := loadTimes(func() { su = nil }, func() error {
			re, err := openSuite(r.ctx, coldDir, r.stream, r.scale, nil)
			if err == nil && (re.builds != 0 || int(re.diskHits) != re.apps()) {
				r.g.failOp(fmt.Sprintf("cold_build reload: %d builds, %d snapshot loads, want 0 and %d", re.builds, re.diskHits, re.apps()))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		ms["setup_s"] = median(loads)
	}

	ms["iter_s"] = median(wall)
	ms["cpu_s"] = median(cpu)
	ms["peak_rss_mb"] = peakRSSMB()
	// The unit of work a user waits for is the daemon's job in
	// service_jobs and the whole request sequence here.
	ms["job_p50_ms"] = 1e3 * median(wall)
	ms["info.iterations"] = float64(len(wall))
	ms["info.iter_min_s"] = slices.Min(wall)
	return ms, nil
}

// serviceRun measures service_jobs with tracing off: phase A only.
func (r *run) serviceRun() (metricSet, error) {
	svc := r.newService(nil)
	ms, err := svc.run(serviceSize{setups: 3, perExp: r.jobsPerExp()})
	if err != nil {
		return nil, err
	}
	ms["cpu_s"] = svc.cpuS
	ms["peak_rss_mb"] = svc.rssMB
	return ms, nil
}

// jobsPerExp sizes phase A: a request of each of the 13 experiments for
// every four seconds of run length, which two clients finish in about
// that time on a 2-core host.
func (r *run) jobsPerExp() int { return max(1, int(r.seconds/4)) }

func (r *run) newService(root *span) *service {
	return &service{ctx: r.ctx, bin: r.sharesimd, workDir: r.workDir, seed: r.seed, stream: r.stream,
		scale: r.scale, g: r.g, tr: r.tr, root: root}
}

// tracedRun is the separate per-layer run of any workload: the layer
// probes on the probe applications, then one iteration of the workload
// with spans on, then the service with both phases (in full for
// service_jobs, a short version otherwise), so every per-layer metric is
// measured in every traced run.
func (r *run) tracedRun() (metricSet, error) {
	root := r.tr.begin(nil, "bench.run:"+r.workload)
	defer func() { r.tr.end(root, nil) }()

	su, err := openSuite(r.ctx, r.inputs, r.stream, r.scale, probeApps)
	if err != nil {
		return nil, err
	}
	p := newProbes(r.ctx, r.tr, root, r.stream, su)
	if err := p.buildSide(); err != nil {
		return nil, err
	}
	if err := p.streamStore(filepath.Join(r.workDir, "probe-store")); err != nil {
		return nil, err
	}
	if err := p.analyzers(); err != nil {
		return nil, err
	}
	if err := p.replaySide(); err != nil {
		return nil, err
	}
	if err := p.experiments(r.g, probeApps); err != nil {
		return nil, err
	}
	ms := p.ms
	inProc := r.workload != "service_jobs"
	var w workload
	if inProc {
		// Do the layers add up? The probes' rates times the probe suite's
		// own counts, against the experiments of this workload as they ran
		// on the same streams.
		w = workloadByName(r.workload)
		r.est = estimate(w.name, ms, su.accesses, su.refs, min(runtime.GOMAXPROCS(0), su.apps()))
		if w.cold {
			r.estWallS = ms["sim.suite_build_s"]
		}
		for _, req := range w.reqs {
			r.estWallS += ms["sim.exp_s."+req.Exp]
		}
		var est float64
		for _, v := range r.est {
			est += v
		}
		ms["sim.layer_sum_ratio"] = est / r.estWallS
	}
	su, p = nil, nil // the probe streams are not needed again

	// The short service: a few small jobs, and two big ones on the probe
	// applications alone.
	big := bigCatalogue(r.stream, r.scale)[:2]
	for i := range big {
		big[i].Workloads = probeApps
	}
	size := serviceSize{setups: 1, perExp: 1, big: big}
	if !inProc {
		size = serviceSize{setups: 1, perExp: r.jobsPerExp(), big: bigCatalogue(r.stream, r.scale)}
	} else {
		// One iteration of the workload under spans.
		it := r.tr.begin(root, "bench.iteration")
		dir := r.inputs
		if w.cold {
			dir = filepath.Join(r.workDir, "cold-traced")
		}
		ls := r.tr.begin(it, "streamcache.open_suite")
		full, err := openSuite(r.ctx, dir, r.stream, r.scale, nil)
		r.tr.end(ls, nil)
		if err != nil {
			return nil, err
		}
		r.serve(it, full, w.reqs)
		r.tr.end(it, nil)
	}

	svc := r.newService(root)
	sms, err := svc.run(size)
	if err != nil {
		return nil, err
	}
	for k, v := range sms {
		if _, ok := ms[k]; !ok {
			ms[k] = v // sim.layer_sum_ratio is the one name both sides set
		}
	}
	ms["mem.anon_huge_mb"] = anonHugeMB()
	return ms, nil
}

func workloadByName(name string) workload {
	for _, w := range inProcess {
		if w.name == name {
			return w
		}
	}
	panic("no in-process workload " + name) // main validated the name
}

// estimate splits one iteration of an in-process workload over the layers
// it calls: the probes' busy time per access times the accesses and raw
// references of the streams, divided by the pool width. It is the sum
// that sim.layer_sum_ratio compares with the measured wall.
func estimate(name string, ms metricSet, accesses, refs float64, workers int) map[string]float64 {
	per := func(metric string) float64 { return ms[metric] * accesses / 1e9 / float64(workers) }
	est := map[string]float64{}
	switch name {
	case "policy_sweep":
		var probe float64
		for k, v := range ms {
			if strings.HasPrefix(k, "policy.probe_ns_per_access.") {
				probe += v * accesses / 1e9 / float64(workers)
			}
		}
		est["policy"] = probe
		// F1 is one LRU lane, F4 the 14 fused lanes; the probe kernels are
		// part of the fused walk, so they come off the sharing share.
		est["sharing"] = per("sharing.lane1_ns_per_access") + 14*per("sharing.fused14_ns_per_lane_access") - probe
	case "oracle_predictor":
		// F5 with LRU: a bare and a protected lane at two LLC sizes. F8: a
		// bare lane, the oracle ceiling and six driven predictors.
		est["sharing"] = 3 * per("sharing.lane1_ns_per_access")
		est["oracle"] = 3 * per("oracle.hints_ns_per_access")
		est["core"] = 3 * per("core.protected_ns_per_lane_access")
		est["predictor"] = 6 * per("predictor.drive_ns_per_lane_access")
	case "cold_build":
		perRef := func(metric string) float64 { return ms[metric] * refs / 1e9 / float64(workers) }
		est["workloads"] = perRef("workloads.generate_ns_per_ref")
		est["cache"] = perRef("cache.filter_ns_per_ref") + per("cache.annotate_ns_per_access") +
			ms["streamcache.snapshot_mb"]*(1<<20)/1e6/ms["cache.encode_mb_per_s"]/float64(workers) // the snapshot encode
		est["phase"] = per("phase.analyze_ns_per_access")
		est["reuse"] = per("reuse.analyze_ns_per_access")
		est["oracle"] = per("oracle.hints_ns_per_access")
		// measured as wall time on the pool already
		est["coherence"] = ms["coherence.characterize_ns_per_access"] * refs / 1e9
	}
	return est
}

// prepare makes sure the snapshot store for the stream seed exists. It is
// untimed, and every run in this checkout with the same stream seed shares
// the store; a marker file says it is complete.
func (r *run) prepare() error {
	marker := filepath.Join(r.inputs, "complete")
	if _, err := os.Stat(marker); err == nil {
		return nil
	}
	if err := os.MkdirAll(r.inputs, 0o755); err != nil {
		return err
	}
	su, err := openSuite(r.ctx, r.inputs, r.stream, r.scale, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: prepared %d application streams in %s (%d built)\n", su.apps(), r.inputs, su.builds)
	return os.WriteFile(marker, nil, 0o644)
}

package main

// layers.go is the one adapter between the benchmark and the program:
// every call into sharellc/internal/* lives in this file. A change that
// renames or removes a function named here edits this file only.
//
// The file binds to the documented surface alone. It selects no replay
// kernel, tracker or SIMD tier and reads no environment variable, so the
// program runs with the defaults a user gets.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/oracle"
	"sharellc/internal/phase"
	"sharellc/internal/policy"
	"sharellc/internal/predictor"
	"sharellc/internal/report"
	"sharellc/internal/reuse"
	"sharellc/internal/sharing"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
	"sharellc/internal/trace"
	"sharellc/internal/workloads"
)

const (
	llcBytes = 4 * cache.MB // the paper's default LLC, used by every probe
	llcWays  = 16
)

// suite is a prepared set of application streams plus the counters of
// the stream cache that produced it.
type suite struct {
	s        *sim.Suite
	builds   uint64  // streams generated from the workload models
	diskHits uint64  // streams loaded from snapshot files
	accesses float64 // LLC accesses over all streams
	refs     float64 // raw references over all streams
}

// openSuite prepares the streams of apps (nil = all 22 applications)
// through a new stream cache on dir: snapshots found there are loaded,
// the rest are generated, filtered, annotated and written.
func openSuite(ctx context.Context, dir string, seed uint64, scale float64, apps []string) (*suite, error) {
	models, err := sim.ModelsByName(apps)
	if err != nil {
		return nil, err
	}
	sc := streamcache.New(streamcache.Options{Dir: dir})
	if sc.Dir() == "" {
		return nil, fmt.Errorf("snapshot directory %s cannot be used", dir)
	}
	s, err := sim.NewSuiteContext(ctx, sim.Config{
		Machine: cache.DefaultConfig(),
		Seed:    seed,
		Scale:   scale,
		Models:  models,
		Streams: sc.Stream,
	})
	if err != nil {
		return nil, err
	}
	st := sc.Stats()
	out := &suite{s: s, builds: st.Builds, diskHits: st.DiskHits}
	for _, x := range s.Streams {
		out.accesses += float64(len(x.Accesses))
		out.refs += float64(x.TraceLen)
	}
	return out, nil
}

func (s *suite) apps() int { return len(s.s.Streams) }

// tables runs one experiment request on the suite, the body of
// sharesim's dispatch: look the experiment up, run it, return its tables.
func (s *suite) tables(req request) ([]*report.Table, error) {
	e, err := sim.ExperimentByID(req.Exp)
	if err != nil {
		return nil, err
	}
	o := sim.DefaultExpOptions()
	if req.LLCMB != 0 {
		o.LLCSize = int(req.LLCMB * float64(cache.MB))
	}
	if req.Ways != 0 {
		o.LLCWays = req.Ways
	}
	o.Policies = req.Policies
	return e.Run(s.s, o)
}

// render runs req and renders every table as sharesim prints it.
func (s *suite) render(req request) ([][]byte, error) {
	tabs, err := s.tables(req)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(tabs))
	for i, t := range tabs {
		var b bytes.Buffer
		if err := t.Render(&b); err != nil {
			return nil, err
		}
		out[i] = b.Bytes()
	}
	return out, nil
}

// probes times each layer's public functions over the applications of a
// probe suite. Every pass runs on a GOMAXPROCS-wide pool, as the
// experiments do, and records one span per application and one per pass.
// Durations and counts add up under the span's name; a rate is the summed
// time the workers were busy over the summed count.
type probes struct {
	ctx  context.Context
	tr   *tracer
	root *span
	seed uint64
	su   *suite
	ms   metricSet

	mu  sync.Mutex
	dur map[string]time.Duration
	cnt map[string]float64
}

func newProbes(ctx context.Context, tr *tracer, root *span, seed uint64, su *suite) *probes {
	return &probes{ctx: ctx, tr: tr, root: root, seed: seed, su: su, ms: metricSet{},
		dur: map[string]time.Duration{}, cnt: map[string]float64{}}
}

// timed runs fn inside a span and adds its wall time and the count it
// returns to the totals kept under name.
func (p *probes) timed(parent *span, name string, fn func() (float64, error)) error {
	s := p.tr.begin(parent, name)
	t0 := time.Now()
	n, err := fn()
	d := time.Since(t0)
	p.tr.end(s, map[string]float64{"count": n})
	p.mu.Lock()
	p.dur[name] += d
	p.cnt[name] += n
	p.mu.Unlock()
	return err
}

func (p *probes) ns(name string) float64 { return float64(p.dur[name].Nanoseconds()) }

func (p *probes) nsPer(name string) float64 { return p.ns(name) / p.cnt[name] }

// pass runs fn for every stream of the probe suite on the pool.
func (p *probes) pass(name string, fn func(parent *span, st *sim.Stream) error) error {
	ps := p.tr.begin(p.root, "bench.pass:"+name)
	defer p.tr.end(ps, nil)
	streams := p.su.s.Streams
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(streams) || p.ctx.Err() != nil {
					return
				}
				as := p.tr.begin(ps, "bench.app:"+name+":"+streams[i].Model.Name)
				if as != nil {
					as.Tid = w + 1
				}
				err := fn(as, streams[i])
				p.tr.end(as, nil)
				if err != nil {
					errs[w] = fmt.Errorf("%s %s: %w", name, streams[i].Model.Name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return p.ctx.Err()
}

// buildSide times the stages of a cold stream build one by one, then the
// snapshot codec on the result.
func (p *probes) buildSide() error {
	machine := cache.DefaultConfig()
	err := p.pass("build", func(parent *span, st *sim.Stream) error {
		var refs []trace.Access
		if err := p.timed(parent, "workloads.generate", func() (float64, error) {
			r, err := st.Model.Generate(p.seed)
			if err != nil {
				return 0, err
			}
			refs, err = trace.Collect(r)
			return float64(len(refs)), err
		}); err != nil {
			return err
		}
		var stream []cache.AccessInfo
		if err := p.timed(parent, "cache.filter", func() (float64, error) {
			var err error
			stream, _, err = cache.FilterStream(trace.NewSliceReader(refs), machine)
			return float64(len(refs)), err
		}); err != nil {
			return err
		}
		if err := p.timed(parent, "cache.annotate", func() (float64, error) {
			cache.AnnotateNextUse(stream)
			return float64(len(stream)), nil
		}); err != nil {
			return err
		}
		if len(stream) != len(st.Accesses) {
			return fmt.Errorf("rebuilt stream has %d accesses, the snapshot %d", len(stream), len(st.Accesses))
		}
		var enc []byte
		if err := p.timed(parent, "cache.encode", func() (float64, error) {
			var err error
			enc, err = cache.AppendAccessInfos(nil, stream)
			return float64(len(enc)), err
		}); err != nil {
			return err
		}
		return p.timed(parent, "cache.decode", func() (float64, error) {
			dst := make([]cache.AccessInfo, len(stream))
			_, err := cache.DecodeAccessInfos(enc, dst)
			return float64(len(enc)), err
		})
	})
	if err != nil {
		return err
	}
	p.ms["workloads.generate_ns_per_ref"] = p.nsPer("workloads.generate")
	p.ms["workloads.refs"] = p.cnt["workloads.generate"]
	p.ms["cache.filter_ns_per_ref"] = p.nsPer("cache.filter")
	p.ms["cache.annotate_ns_per_access"] = p.nsPer("cache.annotate")
	p.ms["cache.llc_accesses"] = p.cnt["cache.annotate"]
	// bytes per ns = GB/s; ×1000 gives MB/s (decimal, as disk rates are quoted)
	p.ms["cache.encode_mb_per_s"] = 1000 / p.nsPer("cache.encode")
	p.ms["cache.decode_mb_per_s"] = 1000 / p.nsPer("cache.decode")
	return nil
}

// streamStore times suite construction and the stream cache on an empty
// directory: the cold build of the probe suite, its reload from the
// snapshots just written, then the same streams one by one through a new
// cache, and once more from that cache's in-process level.
func (p *probes) streamStore(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	apps := make([]string, len(p.su.s.Streams))
	for i, st := range p.su.s.Streams {
		apps[i] = st.Model.Name
	}
	for _, name := range []string{"sim.suite_build", "sim.suite_load"} {
		if err := p.timed(p.root, name, func() (float64, error) {
			_, err := openSuite(p.ctx, dir, p.seed, p.su.s.Config.Scale, apps)
			return float64(len(apps)), err
		}); err != nil {
			return err
		}
	}
	machine := cache.DefaultConfig()
	sc := streamcache.New(streamcache.Options{Dir: dir})
	for _, name := range []string{"streamcache.disk_load", "streamcache.mem_hit"} {
		if err := p.timed(p.root, name, func() (float64, error) {
			for _, st := range p.su.s.Streams { // the models are already scaled
				if _, err := sc.Stream(p.ctx, st.Model, machine, p.seed); err != nil {
					return 0, err
				}
			}
			return float64(len(apps)), nil
		}); err != nil {
			return err
		}
	}
	st := sc.Stats()
	if st.Builds != 0 || int(st.DiskHits) != len(apps) || int(st.Hits) != len(apps) {
		return fmt.Errorf("stream cache reload: %d builds, %d disk hits, %d memory hits for %d streams",
			st.Builds, st.DiskHits, st.Hits, len(apps))
	}
	p.ms["sim.suite_build_s"] = p.ns("sim.suite_build") / 1e9
	p.ms["sim.suite_load_s"] = p.ns("sim.suite_load") / 1e9
	p.ms["streamcache.disk_load_s"] = p.ns("streamcache.disk_load") / 1e9
	p.ms["streamcache.mem_hit_us"] = p.nsPer("streamcache.mem_hit") / 1e3
	p.ms["streamcache.snapshot_mb"] = float64(st.DiskBytes) / (1 << 20)
	return nil
}

// analyzers times the oracle's hint pass and the stream analyzers that
// F9, C1 and C2 are made of.
func (p *probes) analyzers() error {
	err := p.pass("analyze", func(parent *span, st *sim.Stream) error {
		n := float64(len(st.Accesses))
		var hints []bool
		if err := p.timed(parent, "oracle.hints", func() (float64, error) {
			hints = oracle.SharedHints(st.Accesses, int64(oracle.HorizonFactor*llcBytes/64))
			return n, nil
		}); err != nil {
			return err
		}
		if err := p.timed(parent, "reuse.analyze", func() (float64, error) {
			_, err := reuse.Analyze(st.Accesses, hints)
			return n, err
		}); err != nil {
			return err
		}
		return p.timed(parent, "phase.analyze", func() (float64, error) {
			_, err := phase.Analyze(st.Accesses, phase.DefaultWindows)
			return n, err
		})
	})
	if err != nil {
		return err
	}
	if err := p.timed(p.root, "coherence.characterize", func() (float64, error) {
		_, err := p.su.s.CoherenceCharacterize()
		return p.su.refs, err
	}); err != nil {
		return err
	}
	p.ms["oracle.hints_ns_per_access"] = p.nsPer("oracle.hints")
	p.ms["reuse.analyze_ns_per_access"] = p.nsPer("reuse.analyze")
	p.ms["phase.analyze_ns_per_access"] = p.nsPer("phase.analyze")
	// CoherenceCharacterize runs its own pool, so this one is wall time
	// per reference, not busy time.
	p.ms["coherence.characterize_ns_per_access"] = p.nsPer("coherence.characterize")
	return nil
}

func lanes(names []string, seed uint64) ([]sharing.LLCConfig, error) {
	out := make([]sharing.LLCConfig, len(names))
	for i, n := range names {
		f, err := policy.ByName(n, seed)
		if err != nil {
			return nil, err
		}
		out[i] = sharing.LLCConfig{Size: llcBytes, Ways: llcWays, NewPolicy: f}
	}
	return out, nil
}

// replayPass times one fused replay of configs per application; the
// count is lane-accesses.
func (p *probes) replayPass(name string, configs func(st *sim.Stream) ([]sharing.LLCConfig, error)) error {
	return p.pass(name, func(parent *span, st *sim.Stream) error {
		cfgs, err := configs(st)
		if err != nil {
			return err
		}
		return p.timed(parent, name, func() (float64, error) {
			_, err := sharing.ReplayMulti(st.Accesses, cfgs, st.ReplayOptions(1, p.ctx))
			return float64(len(cfgs) * len(st.Accesses)), err
		})
	})
}

// policyNames returns the catalogue split into the policies whose state
// is per set, which replay sharded, and those with cross-set state, which
// take the two-phase path.
func policyNames(seed uint64) (all, perSet, crossSet []string, err error) {
	all = policy.Names(seed)
	for _, n := range all {
		f, err := policy.ByName(n, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		if policy.PerSet(f()) {
			perSet = append(perSet, n)
		} else {
			crossSet = append(crossSet, n)
		}
	}
	return all, perSet, crossSet, nil
}

// partitionShards is the shard count the partition probe asks for. The
// replay picks its own count per lane set; a counting-sort partition costs
// about the same at any of them.
const partitionShards = 64

// replaySide times the replay engine by lane class, then the policy probe
// kernels on their own, then the hooked lanes of the oracle and predictor
// studies.
func (p *probes) replaySide() error {
	all, perSet, crossSet, err := policyNames(p.seed)
	if err != nil {
		return err
	}
	if err := p.pass("partition", func(parent *span, st *sim.Stream) error {
		return p.timed(parent, "sharing.partition", func() (float64, error) {
			_, err := st.Partitioner()(partitionShards)
			return float64(len(st.Accesses)), err
		})
	}); err != nil {
		return err
	}
	fixed := func(names []string) func(*sim.Stream) ([]sharing.LLCConfig, error) {
		return func(*sim.Stream) ([]sharing.LLCConfig, error) { return lanes(names, p.seed) }
	}
	// The first replay in a process also grows the heap and builds the
	// stream's own partition; one untimed pass keeps that out of lane1.
	if err := p.replayPass("bench.warmup", fixed([]string{"lru"})); err != nil {
		return err
	}
	for _, c := range []struct {
		span  string
		names []string
	}{
		{"sharing.lane1", []string{"lru"}},
		{"sharing.perset", perSet},
		{"sharing.crossset", crossSet},
		{"sharing.fused14", all},
	} {
		if err := p.replayPass(c.span, fixed(c.names)); err != nil {
			return err
		}
	}
	p.ms["sharing.partition_ns_per_access"] = p.nsPer("sharing.partition")
	p.ms["sharing.lane1_ns_per_access"] = p.nsPer("sharing.lane1")
	p.ms["sharing.perset_ns_per_lane_access"] = p.nsPer("sharing.perset")
	p.ms["sharing.crossset_ns_per_lane_access"] = p.nsPer("sharing.crossset")
	p.ms["sharing.fused14_ns_per_lane_access"] = p.nsPer("sharing.fused14")
	p.ms["sharing.fusion_ratio"] = (p.ns("sharing.perset") + p.ns("sharing.crossset")) / p.ns("sharing.fused14")

	if err := p.policyKernels(all); err != nil {
		return err
	}

	lru, err := policy.ByName("lru", p.seed)
	if err != nil {
		return err
	}
	// One LRU lane with a hook that does nothing: what a lane pays for
	// being hooked, before any oracle or predictor work.
	if err := p.replayPass("sharing.hooked", func(*sim.Stream) ([]sharing.LLCConfig, error) {
		return []sharing.LLCConfig{{Size: llcBytes, Ways: llcWays, NewPolicy: lru,
			Hooks: sharing.Hooks{PredictShared: func(cache.AccessInfo) bool { return false }}}}, nil
	}); err != nil {
		return err
	}
	prot := core.Options{Strength: core.Full}
	protected := func() cache.Policy { return core.NewProtectorOpts(lru(), prot) }
	if err := p.replayPass("core.protected", func(st *sim.Stream) ([]sharing.LLCConfig, error) {
		hints := oracle.SharedHints(st.Accesses, int64(oracle.HorizonFactor*llcBytes/64))
		return []sharing.LLCConfig{{Size: llcBytes, Ways: llcWays, NewPolicy: protected,
			Hooks: sharing.Hooks{PredictShared: func(a cache.AccessInfo) bool { return hints[a.Index] }}}}, nil
	}); err != nil {
		return err
	}
	twoPredictors := func() ([]predictor.Predictor, error) {
		addr, err := predictor.NewAddress(predictor.DefaultConfig())
		if err != nil {
			return nil, err
		}
		pc, err := predictor.NewPC(predictor.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return []predictor.Predictor{addr, pc}, nil
	}
	if err := p.pass("predictor.evaluate", func(parent *span, st *sim.Stream) error {
		preds, err := twoPredictors()
		if err != nil {
			return err
		}
		return p.timed(parent, "predictor.evaluate", func() (float64, error) {
			_, err := predictor.EvaluateMulti(p.ctx, st.Accesses, llcBytes, llcWays, lru, preds)
			return float64(len(preds) * len(st.Accesses)), err
		})
	}); err != nil {
		return err
	}
	if err := p.replayPass("predictor.drive", func(*sim.Stream) ([]sharing.LLCConfig, error) {
		preds, err := twoPredictors()
		if err != nil {
			return nil, err
		}
		cfgs := make([]sharing.LLCConfig, len(preds))
		for i, pred := range preds {
			cfgs[i] = sharing.LLCConfig{Size: llcBytes, Ways: llcWays, NewPolicy: protected, Hooks: predictor.HooksFor(pred)}
		}
		return cfgs, nil
	}); err != nil {
		return err
	}
	p.ms["sharing.hooked_ns_per_lane_access"] = p.nsPer("sharing.hooked")
	p.ms["core.protected_ns_per_lane_access"] = p.nsPer("core.protected")
	p.ms["predictor.evaluate_ns_per_lane_access"] = p.nsPer("predictor.evaluate")
	p.ms["predictor.drive_ns_per_lane_access"] = p.nsPer("predictor.drive")
	return p.smallStream(all)
}

// policyKernels drives each policy's probe loop alone, over the block and
// ID columns of the largest probe stream in 2 Ki chunks, which is how the
// replay's lane walk calls it.
func (p *probes) policyKernels(names []string) error {
	st := p.su.s.Streams[0]
	for _, x := range p.su.s.Streams {
		if len(x.Accesses) > len(st.Accesses) {
			st = x
		}
	}
	blk := make([]uint64, len(st.Accesses))
	id := make([]uint32, len(st.Accesses))
	for i := range st.Accesses {
		blk[i], id[i] = st.Accesses[i].Block, st.Accesses[i].BlockID
	}
	const chunk = 2048
	out := make([]uint32, chunk)
	ps := p.tr.begin(p.root, "bench.pass:policy.probe")
	defer p.tr.end(ps, nil)
	for _, name := range names {
		f, err := policy.ByName(name, p.seed)
		if err != nil {
			return err
		}
		c, err := cache.NewSetAssoc(llcBytes, llcWays, f())
		if err != nil {
			return err
		}
		active := make([]uint32, st.NumBlocks)
		lineID := make([]uint32, c.Sets()*c.Ways())
		if err := p.timed(ps, "policy.probe."+name, func() (float64, error) {
			for lo := 0; lo < len(blk); lo += chunk {
				hi := min(lo+chunk, len(blk))
				c.ReplayBatchCols(blk[lo:hi], id[lo:hi], st.Accesses[lo:hi], active, lineID, out)
			}
			return float64(len(blk)), nil
		}); err != nil {
			return err
		}
		p.ms["policy.probe_ns_per_access."+name] = p.nsPer("policy.probe." + name)
	}
	return nil
}

// smallStream replays all 14 lanes over the shortest probe application
// at a tenth of its size, many times: with so few accesses the replay's
// set-up (partition, pools, goroutines) is most of the cost, as it is in
// the daemon's small jobs.
func (p *probes) smallStream(names []string) error {
	machine := cache.DefaultConfig()
	var small *sim.Stream
	for _, st := range p.su.s.Streams {
		m, err := workloads.ByName(st.Model.Name)
		if err != nil {
			return err
		}
		s, err := sim.BuildStream(m.Scaled(0.1*p.su.s.Config.Scale), machine, p.seed)
		if err != nil {
			return err
		}
		if small == nil || len(s.Accesses) < len(small.Accesses) {
			small = s
		}
	}
	const replays = 10
	times := make([]float64, replays)
	ps := p.tr.begin(p.root, "sharing.small_stream")
	defer p.tr.end(ps, map[string]float64{"count": replays})
	for i := range times {
		cfgs, err := lanes(names, p.seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := sharing.ReplayMulti(small.Accesses, cfgs, small.ReplayOptions(0, p.ctx)); err != nil {
			return err
		}
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	p.ms["sharing.small_stream_us_per_replay"] = median(times)
	return nil
}

// probeExps are the experiments the workloads are made of. Each runs on
// the probe suite under its own span, so a later change can see which
// experiment moved.
var probeExps = []request{
	{Exp: "f1"}, {Exp: "f4"}, {Exp: "f5", Policies: []string{"lru"}}, {Exp: "f8"},
	{Exp: "f9"}, {Exp: "c1"}, {Exp: "c2"},
}

// experiments runs every probe experiment, checks its tables against the
// golden, and times rendering and the cluster's row codec on the results.
func (p *probes) experiments(g *golden, apps []string) error {
	var tabs []*report.Table
	alloc0, gc0 := memCounters()
	for _, req := range probeExps {
		var got []*report.Table
		if err := p.timed(p.root, "sim.exp."+req.Exp, func() (float64, error) {
			var err error
			got, err = p.su.tables(req)
			return float64(len(got)), err
		}); err != nil {
			return err
		}
		p.ms["sim.exp_s."+req.Exp] = p.ns("sim.exp."+req.Exp) / 1e9
		req.Seed, req.Scale, req.Workloads = p.seed, p.su.s.Config.Scale, apps
		for i, t := range got {
			var b bytes.Buffer
			if err := t.Render(&b); err != nil {
				return err
			}
			g.check("probe", fmt.Sprintf("%s#%d", req.key(), i), b.Bytes())
		}
		tabs = append(tabs, got...)
	}
	alloc1, gc1 := memCounters()
	p.ms["sim.alloc_mb_per_iter"] = alloc1 - alloc0
	p.ms["sim.gc_cycles_per_iter"] = gc1 - gc0

	const reps = 50
	var textBytes int
	if err := p.timed(p.root, "report.render", func() (float64, error) {
		for r := 0; r < reps; r++ {
			textBytes = 0
			for _, t := range tabs {
				var b bytes.Buffer
				if err := t.Render(&b); err != nil {
					return 0, err
				}
				textBytes += b.Len()
			}
		}
		return float64(reps * len(tabs)), nil
	}); err != nil {
		return err
	}
	if err := p.timed(p.root, "report.render_json", func() (float64, error) {
		for r := 0; r < reps; r++ {
			for _, t := range tabs {
				var b bytes.Buffer
				if err := t.RenderJSON(&b); err != nil {
					return 0, err
				}
			}
		}
		return float64(reps * len(tabs)), nil
	}); err != nil {
		return err
	}
	p.ms["report.render_us_per_table"] = p.nsPer("report.render") / 1e3
	p.ms["report.render_json_us_per_table"] = p.nsPer("report.render_json") / 1e3
	p.ms["report.table_bytes"] = float64(textBytes)

	// The cluster ships typed rows between nodes: encode, decode and merge
	// one table's rows.
	specs, ok := sim.PlanFor("f1", sim.DefaultExpOptions())
	if !ok || len(specs) == 0 {
		return fmt.Errorf("f1 has no table plan")
	}
	rows, err := specs[0].Run(p.su.s)
	if err != nil {
		return err
	}
	if err := p.timed(p.root, "sim.rows_merge", func() (float64, error) {
		for r := 0; r < reps; r++ {
			enc, err := sim.EncodeRows(rows)
			if err != nil {
				return 0, err
			}
			dec, err := sim.DecodeRows(specs[0].Kind, enc)
			if err != nil {
				return 0, err
			}
			if _, err := sim.MergeRows(specs[0].Kind, nil, dec); err != nil {
				return 0, err
			}
		}
		return reps, nil
	}); err != nil {
		return err
	}
	p.ms["sim.rows_merge_us"] = p.nsPer("sim.rows_merge") / 1e3
	return nil
}

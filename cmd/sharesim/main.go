// Command sharesim runs the repository's experiments and prints each as an
// ASCII table (or CSV, markdown, JSON). One experiment id per invocation,
// mirroring the experiment index in DESIGN.md:
//
//	config  T1: the simulated machine configuration
//	suite   T2: the workload suite and its sharing parameters
//	f1      shared vs. private LLC hit volume (default 4 MB LLC)
//	f2      same at 8 MB
//	f3      sharing-degree distribution
//	f4      policy comparison vs. LRU and Belady OPT
//	f5      oracle study (per-workload rows = F6)
//	f7      fill-time predictor accuracy
//	f8      predictor-driven replacement vs. the oracle ceiling
//	f9      sharing-phase stability (why the predictors fail)
//	c1      coherence-protocol traffic characterization (extension)
//	c2      reuse-distance distributions by sharing class (extension)
//	a1      ablation: protection strength (insert-only vs. full)
//	a2      ablation: predictor table-size sweep
//	a3      ablation: LLC associativity sweep
//	a4      ablation: oracle sharing-horizon sweep
//	a5      ablation: seed robustness of the oracle gain
//	m1      oracle on multiprogrammed mixes (motivating contrast: ~0 gain)
//	all     every experiment above, in order
//
// The catalogue itself lives in sim.Experiments — the same index the
// sharesimd daemon serves — so the CLI and the daemon can never drift.
//
// Examples:
//
//	sharesim -exp f1
//	sharesim -exp f5 -policies lru,srrip,drrip,ship
//	sharesim -exp f4 -llc 8 -scale 0.25 -workloads canneal,fft
//	sharesim -exp f7 -csv > f7.csv
//	sharesim -exp f1 -json   # one JSON object per table (NDJSON)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sharesim: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

type options struct {
	exp string
	// req carries the knobs as given: sharesim does not normalize them, so
	// -workloads keeps its order and -policies its CLI default; only the
	// job API's LLC bounds apply (sim.Request.CheckGeometry).
	req      sim.Request
	expOpts  sim.ExpOptions // req's options plus the protection flags jobs lack
	csv      bool
	md       bool
	jsonOut  bool
	quiet    bool
	cachedir string
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("sharesim", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "f1", "experiment id ("+strings.Join(append(sim.ExperimentIDs(), "all"), ", ")+")")
		llcMB    = fs.Float64("llc", 4, "LLC size in MB")
		ways     = fs.Int("ways", 16, "LLC associativity")
		scale    = fs.Float64("scale", 1, "workload scale factor (1 = full size)")
		seed     = fs.Uint64("seed", 1, "master random seed")
		strength = fs.String("strength", "full", "protection strength: full or insert-only")
		skip     = fs.Int("skip-budget", 0, "protected-block skip budget (0 = default, <0 = unlimited)")
		clear    = fs.Bool("clear-on-hit", false, "drop protection once the predicted cross-core hit arrives")
		pols     = fs.String("policies", "lru,nru,srrip,drrip,ship", "comma-separated policies for f5")
		wls      = fs.String("workloads", "", "comma-separated workload subset (default: all)")
		csvOut   = fs.Bool("csv", false, "emit CSV instead of text tables")
		mdOut    = fs.Bool("md", false, "emit markdown instead of text tables")
		jsonOut  = fs.Bool("json", false, "emit one compact JSON object per table (the daemon's encoding)")
		quiet    = fs.Bool("quiet", false, "suppress progress messages")
		cachedir = fs.String("cachedir", "auto", "stream snapshot directory (auto = user cache dir, off = no stream cache)")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof  = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		// Deferred so the profile covers the whole run, including the
		// error paths: runtime.GC first so the snapshot reflects live
		// heap, not collection timing.
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
			f.Close()
		}()
	}
	if *strength != "full" && *strength != "insert-only" {
		return fmt.Errorf("unknown strength %q (want full or insert-only)", *strength)
	}
	o := options{
		exp: strings.ToLower(*exp),
		req: sim.Request{LLCMB: *llcMB, Ways: *ways, Seed: *seed, Scale: *scale, Strength: *strength},
		csv: *csvOut, md: *mdOut, jsonOut: *jsonOut, quiet: *quiet,
		cachedir: *cachedir,
	}
	if *pols != "" {
		o.req.Policies = strings.Split(*pols, ",")
	}
	// An unknown policy fails before any stream is prepared, whichever
	// experiment reads the list.
	for _, p := range o.req.Policies {
		if _, err := policy.ByName(p, *seed); err != nil {
			return fmt.Errorf("-policies: %w; see sharesim -h", err)
		}
	}
	if *wls != "" {
		o.req.Workloads = strings.Split(*wls, ",")
	}
	if err := o.req.CheckGeometry(); err != nil {
		return fmt.Errorf("-llc %g -ways %d: %w", *llcMB, *ways, err)
	}
	o.expOpts = o.req.Options()
	o.expOpts.Prot.SkipBudget = *skip
	o.expOpts.Prot.ClearOnFulfil = *clear
	return dispatch(w, o)
}

func dispatch(w io.Writer, o options) error {
	// Resolve the experiment list and the workloads up front so an unknown
	// id or workload name exits non-zero with a usage message before any
	// simulation work starts.
	ids := sim.ExperimentIDs()
	if o.exp != "all" {
		if _, err := sim.ExperimentByID(o.exp); err != nil {
			return fmt.Errorf("%w; see sharesim -h", err)
		}
		ids = []string{o.exp}
	}
	cfg, err := o.req.Config(cache.DefaultConfig())
	if err != nil {
		return fmt.Errorf("%w; see sharesim -h", err)
	}
	var streams *streamcache.Cache
	if dir, ok := streamcache.DirFromFlag(o.cachedir); ok {
		streams = streamcache.New(streamcache.Options{Dir: dir})
		cfg.Streams = streams.Stream
	}
	if !o.quiet {
		// Stream-preparation callbacks arrive concurrently and may be
		// reordered between the counter increment and the print, so
		// only ever advance the carriage-returned progress line.
		var mu sync.Mutex
		best := 0
		start := time.Now()
		cfg.Progress = func(done, total int, label string) {
			mu.Lock()
			defer mu.Unlock()
			if done <= best {
				return
			}
			best = done
			fmt.Fprintf(os.Stderr, "\rsharesim: preparing %d/%d workload streams", done, total)
			if done < total {
				return
			}
			from := ""
			if streams != nil {
				if st := streams.Stats(); st.DiskHits > 0 {
					from = fmt.Sprintf(" (%d from snapshot cache)", st.DiskHits)
				}
			}
			fmt.Fprintf(os.Stderr, "\nsharesim: prepared %d workload streams in %v%s\n",
				total, time.Since(start).Round(time.Millisecond), from)
		}
	}
	return sim.RunExperiments(context.Background(), cfg, ids, o.expOpts, nil, func(tables []*report.Table) error {
		for _, t := range tables {
			if err := emit(w, o, t); err != nil {
				return err
			}
		}
		return nil
	})
}

func emit(w io.Writer, o options, t *report.Table) error {
	switch {
	case o.jsonOut:
		return t.RenderJSON(w)
	case o.csv:
		return t.RenderCSV(w)
	case o.md:
		return t.RenderMarkdown(w)
	default:
		return t.Render(w)
	}
}

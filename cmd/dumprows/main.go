// Command dumprows prints experiment rows for a small fixed config so two
// versions of the simulator can be diffed for bit-identical output.
//
// Two higher-level modes ride on the same fixed config:
//
//	dumprows -tables           print canonical table JSON via the experiment index
//	dumprows -cluster 3        run one job per experiment through an in-process
//	                           coordinator with 3 workers and byte-compare
//	                           each against the direct run (exit 1 on any diff)
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/cluster"
	"sharellc/internal/core"
	"sharellc/internal/predictor"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
	"sharellc/internal/workloads"
)

// tinyMachine is the fixed diff-harness config: small enough that the
// full catalogue runs in seconds, large enough that every policy and
// sharing path is exercised.
var tinyMachine = cache.Config{
	Cores:  8,
	L1Size: 2 * cache.KB, L1Ways: 2,
	L2Size: 8 * cache.KB, L2Ways: 4,
	LLCSize: 64 * cache.KB, LLCWays: 8,
}

func main() {
	tables := flag.Bool("tables", false, "print canonical table JSON instead of raw rows")
	clusterN := flag.Int("cluster", 0, "run through an in-process coordinator with N workers and byte-compare against the direct run")
	exps := flag.String("exps", "all", "comma-separated experiment ids for -tables/-cluster")
	flag.Parse()
	if !*tables && *clusterN == 0 {
		dumpRows()
		return
	}
	ids := strings.Split(*exps, ",")
	if *exps == "all" {
		ids = sim.ExperimentIDs()
	}
	// The harness knobs both execution paths run, first the direct way a
	// single daemon or the CLI would.
	knobs := sim.Request{
		LLCMB:     float64(tinyMachine.LLCSize) / float64(cache.MB),
		Ways:      tinyMachine.LLCWays,
		Seed:      1,
		Scale:     0.05,
		Workloads: []string{"canneal", "streamcluster", "swaptions"},
	}
	if err := knobs.Normalize(); err != nil {
		log.Fatal(err)
	}
	cfg, err := knobs.Config(tinyMachine)
	if err != nil {
		log.Fatal(err)
	}
	var direct [][]*report.Table // per experiment, in ids order
	if err := sim.RunExperiments(context.Background(), cfg, ids, knobs.Options(), nil,
		func(t []*report.Table) error { direct = append(direct, t); return nil }); err != nil {
		log.Fatalf("direct run: %v", err)
	}
	if *clusterN == 0 {
		for _, t := range direct {
			os.Stdout.Write(renderTables(t))
		}
		return
	}
	if err := diffCluster(ids, knobs, direct, *clusterN); err != nil {
		log.Fatal(err)
	}
}

// diffCluster runs one job per experiment id through an in-process
// coordinator with n polling workers over real HTTP and byte-compares
// each job's rendered tables with the direct run's.
func diffCluster(ids []string, knobs sim.Request, direct [][]*report.Table, n int) error {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Cache: streamcache.New(streamcache.Options{}),
	})
	cmux := http.NewServeMux()
	coord.Register(cmux)
	cs := httptest.NewServer(cmux)
	defer cs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < n; i++ {
		wmux := http.NewServeMux()
		ws := httptest.NewServer(wmux)
		defer ws.Close()
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			CoordinatorURL: cs.URL,
			SelfURL:        ws.URL,
			Cache:          streamcache.New(streamcache.Options{}),
			Poll:           20 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		w.Register(wmux)
		go w.Run(ctx)
	}

	tables, size := 0, 0
	for i, id := range ids {
		job := cluster.Request{JobRequest: sim.JobRequest{Exp: id, Request: knobs}, Machine: &tinyMachine}
		if err := job.Normalize(); err != nil {
			return err
		}
		got, err := coord.Run(ctx, job, nil)
		if err != nil {
			return fmt.Errorf("cluster run of %s: %w", id, err)
		}
		want, have := renderTables(direct[i]), renderTables(got)
		if !bytes.Equal(want, have) {
			wl, hl := strings.Split(string(want), "\n"), strings.Split(string(have), "\n")
			for k := 0; k < len(wl) || k < len(hl); k++ {
				var a, b string
				if k < len(wl) {
					a = wl[k]
				}
				if k < len(hl) {
					b = hl[k]
				}
				if a != b {
					fmt.Fprintf(os.Stderr, "first diff in %s at table %d:\n direct:  %s\n cluster: %s\n", id, k, a, b)
					break
				}
			}
			return fmt.Errorf("cluster(%d workers) output for %s differs from direct run", n, id)
		}
		tables += len(got)
		size += len(have)
	}
	fmt.Printf("cluster(%d workers) output identical to direct run: %d tables, %d bytes\n", n, tables, size)
	return nil
}

// dumpRows is the original raw-row diff dump.
func dumpRows() {
	models := make([]workloads.Model, 0, 3)
	for _, name := range []string{"canneal", "streamcluster", "swaptions"} {
		m, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		models = append(models, m)
	}
	cfg := sim.Config{
		Machine: tinyMachine,
		Seed:    1,
		Scale:   0.05,
		Models:  models,
	}
	s, err := sim.NewSuite(cfg)
	if err != nil {
		log.Fatal(err)
	}
	const size, ways = 64 * cache.KB, 8
	char, err := s.Characterize(size, ways)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range char {
		fmt.Printf("char %+v\n", r)
	}
	pol, err := s.ComparePolicies(size, ways, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range pol {
		fmt.Printf("policy %+v\n", r)
	}
	orc, err := s.OracleStudy(size, ways, []string{"lru", "srrip"}, core.Options{Strength: core.Full})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range orc {
		fmt.Printf("oracle %+v\n", r)
	}
	pred, err := s.PredictorAccuracy(size, ways, predictor.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range pred {
		fmt.Printf("pred %+v\n", r)
	}
	drv, err := s.PredictorDriven(size, ways, predictor.DefaultConfig(), []string{"addr", "pc"}, core.Options{Strength: core.Full})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range drv {
		fmt.Printf("driven %+v\n", r)
	}
	reuse, err := s.ReuseDistances(size)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reuse {
		fmt.Printf("reuse %+v\n", r)
	}
	ph, err := s.SharingPhases(8)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range ph {
		fmt.Printf("phase %+v\n", r)
	}
}

// renderTables marshals tables as newline-delimited canonical JSON.
func renderTables(tables []*report.Table) []byte {
	var b bytes.Buffer
	for _, t := range tables {
		if err := t.RenderJSON(&b); err != nil {
			log.Fatal(err)
		}
	}
	return b.Bytes()
}

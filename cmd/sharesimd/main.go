// Command sharesimd serves the repository's experiments over HTTP. It
// wraps the same experiment index as cmd/sharesim in a job manager with
// a bounded worker pool, a deduplicating result cache, per-job
// cancellation and Prometheus metrics. See docs/API.md for the
// endpoints and curl examples.
//
// Usage:
//
//	sharesimd -addr :8070 -workers 2 -cache 64 -queue 16 -drain 30s -cachedir auto
//
// Cluster roles (-mode):
//
//	sharesimd -mode coordinator -addr :8070
//	sharesimd -mode worker -addr :8071 -coordinator-url http://host:8070 -advertise http://host:8071
//
// A coordinator accepts the same job API as a single daemon but executes
// every job as leased bundles on polling workers, merging partial rows
// into byte-identical tables. Workers serve no job API; they poll the
// coordinator, fetch content-addressed stream snapshots from peers (and
// from the coordinator, when a lease says it holds one), and
// expose /healthz, /metrics and GET /v1/streams/{hash}. Every mode serves
// through one server.Server built from the parts the role has.
//
// SIGINT/SIGTERM begin a graceful shutdown: the listener stops accepting
// connections, queued jobs are cancelled, and running jobs get up to
// -drain to finish before their contexts are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"sharellc/internal/cluster"
	"sharellc/internal/server"
	"sharellc/internal/sim/streamcache"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("sharesimd: ")

	var (
		addr     = flag.String("addr", ":8070", "listen address")
		workers  = flag.Int("workers", 2, "single mode: jobs run at once; coordinator mode: jobs handed to the cluster at once; worker mode: bundles executed at once")
		cacheN   = flag.Int("cache", 64, "completed results retained in the LRU cache")
		queueN   = flag.Int("queue", 16, "queued jobs accepted before 503")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
		cachedir = flag.String("cachedir", "auto", "stream snapshot directory (auto = user cache dir, off = no snapshots; streams are still shared in-process)")
		memMB    = flag.Int64("stream-mem", 0, "in-process stream cache budget in MB (0 = default, <0 = unlimited)")
		diskMB   = flag.Int64("cache-max-bytes", 0, "on-disk snapshot store budget in MB (0 = unlimited); LRU snapshots are evicted past it")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")

		mode     = flag.String("mode", "single", "daemon role: single, coordinator or worker")
		coordURL = flag.String("coordinator-url", "", "coordinator base URL (worker mode, required)")
		selfURL  = flag.String("advertise", "", "worker mode: this node's reachable base URL, advertised to peers as a snapshot source")
		poll     = flag.Duration("poll", 250*time.Millisecond, "idle wait between lease polls (worker mode)")
		leaseTTL = flag.Duration("lease-ttl", 15*time.Second, "bundle lease TTL before re-queue (coordinator mode)")
	)
	flag.Parse()

	if *pprofOn != "" {
		// The profiling endpoints live on their own listener, never on
		// the job API's: -pprof is for operators on a trusted interface,
		// and DefaultServeMux is where net/http/pprof registers itself.
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofOn)
			if err := http.ListenAndServe(*pprofOn, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}
	switch *mode {
	case "single", "coordinator", "worker":
	default:
		log.Fatalf("unknown mode %q (want single, coordinator or worker)", *mode)
	}
	if *mode == "worker" && *coordURL == "" {
		log.Fatal("worker mode requires -coordinator-url")
	}

	// Jobs always share built streams in-process; -cachedir only decides
	// whether they also persist across daemon restarts, and
	// -cache-max-bytes bounds that store.
	dir, _ := streamcache.DirFromFlag(*cachedir)
	budget := *memMB
	if budget > 0 {
		budget *= 1 << 20
	}
	diskBudget := *diskMB
	if diskBudget > 0 {
		diskBudget *= 1 << 20
	}
	streams := streamcache.New(streamcache.Options{Dir: dir, MemBudget: budget, DiskBudget: diskBudget})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var manager *server.Manager
	var worker *cluster.Worker
	if *mode == "worker" {
		var err error
		worker, err = cluster.NewWorker(cluster.WorkerConfig{
			CoordinatorURL: *coordURL,
			SelfURL:        *selfURL,
			Cache:          streams,
			Slots:          *workers,
			Poll:           *poll,
		})
		if err != nil {
			log.Fatalf("worker: %v", err)
		}
	} else {
		cfg := server.Config{
			Workers:     *workers,
			CacheSize:   *cacheN,
			QueueDepth:  *queueN,
			StreamCache: streams,
		}
		if *mode == "coordinator" {
			cfg.Coordinator = cluster.NewCoordinator(cluster.CoordinatorConfig{
				Cache:    streams,
				LeaseTTL: *leaseTTL,
			})
		}
		manager = server.NewManager(cfg)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: server.New(manager, worker)}
	var workerDone chan error
	if worker != nil {
		workerDone = make(chan error, 1)
		go func() { workerDone <- worker.Run(ctx) }()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	snapdir := streams.Dir()
	if snapdir == "" {
		snapdir = "off"
	}
	log.Printf("listening on %s (%s mode, %d workers, cache %d, queue %d, snapshots %s)",
		*addr, *mode, *workers, *cacheN, *queueN, snapdir)

	select {
	case err := <-errCh:
		log.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}

	log.Printf("shutdown signal received; draining for up to %v", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if manager != nil {
		if err := manager.Shutdown(drainCtx); err != nil {
			log.Printf("job drain: %v", err)
		}
	}
	if workerDone != nil {
		if err := <-workerDone; err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("worker: %v", err)
		}
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Print("bye")
}

package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"sharellc/internal/cluster"
	"sharellc/internal/mem"
	"sharellc/internal/sim/streamcache"
)

// metrics is a small hand-rolled Prometheus registry: the daemon's
// counters, gauges and one latency histogram family, rendered in the
// text exposition format. Keeping it dependency-free matters — the
// container bakes in only the standard library — and the handful of
// series here does not justify a client library.
type metrics struct {
	mu sync.Mutex

	jobsTotal   map[string]uint64 // by terminal state: done, failed, cancelled
	cacheHits   uint64
	cacheMisses uint64
	coalesced   uint64
	rejected    uint64
	queueDepth  int
	inflight    int

	durations map[string]*histogram // per experiment id, seconds

	// streams, when non-nil, reads the shared stream cache's counters at
	// scrape time (the cache keeps its own consistent snapshot; nothing
	// is double-counted here).
	streams func() streamcache.Stats

	// cluster, when non-nil (coordinator role), reads the bundle
	// scheduler's counters at scrape time.
	cluster func() cluster.CoordinatorStats
}

// durationBuckets are the histogram upper bounds in seconds, spanning
// cache-warm microsecond replies through full-scale multi-minute runs.
var durationBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}

type histogram struct {
	counts []uint64 // one per bucket, cumulative rendering happens at write time
	sum    float64
	total  uint64
}

func newMetrics() *metrics {
	return &metrics{
		jobsTotal: map[string]uint64{},
		durations: map[string]*histogram{},
	}
}

func (m *metrics) jobFinished(state, exp string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsTotal[state]++
	if state != string(stateDone) {
		return
	}
	h := m.durations[exp]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(durationBuckets))}
		m.durations[exp] = h
	}
	for i, ub := range durationBuckets {
		if seconds <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += seconds
	h.total++
}

func (m *metrics) add(field *uint64) { m.mu.Lock(); *field++; m.mu.Unlock() }
func (m *metrics) gauge(field *int, d int) {
	m.mu.Lock()
	*field += d
	m.mu.Unlock()
}

// write renders the registry in Prometheus text format, deterministically
// ordered so scrapes (and tests) are stable.
func (m *metrics) write(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	b.WriteString("# HELP sharesimd_jobs_total Jobs finished, by terminal state.\n")
	b.WriteString("# TYPE sharesimd_jobs_total counter\n")
	for _, st := range []string{"done", "failed", "cancelled"} {
		fmt.Fprintf(&b, "sharesimd_jobs_total{state=%q} %d\n", st, m.jobsTotal[st])
	}

	b.WriteString("# HELP sharesimd_cache_hits_total Result-cache hits.\n")
	b.WriteString("# TYPE sharesimd_cache_hits_total counter\n")
	fmt.Fprintf(&b, "sharesimd_cache_hits_total %d\n", m.cacheHits)
	b.WriteString("# HELP sharesimd_cache_misses_total Result-cache misses (jobs actually run).\n")
	b.WriteString("# TYPE sharesimd_cache_misses_total counter\n")
	fmt.Fprintf(&b, "sharesimd_cache_misses_total %d\n", m.cacheMisses)
	b.WriteString("# HELP sharesimd_jobs_coalesced_total Submissions coalesced onto an identical in-flight job.\n")
	b.WriteString("# TYPE sharesimd_jobs_coalesced_total counter\n")
	fmt.Fprintf(&b, "sharesimd_jobs_coalesced_total %d\n", m.coalesced)
	b.WriteString("# HELP sharesimd_jobs_rejected_total Submissions rejected (queue full or draining).\n")
	b.WriteString("# TYPE sharesimd_jobs_rejected_total counter\n")
	fmt.Fprintf(&b, "sharesimd_jobs_rejected_total %d\n", m.rejected)

	b.WriteString("# HELP sharesimd_queue_depth Jobs queued and not yet running.\n")
	b.WriteString("# TYPE sharesimd_queue_depth gauge\n")
	fmt.Fprintf(&b, "sharesimd_queue_depth %d\n", m.queueDepth)
	b.WriteString("# HELP sharesimd_jobs_inflight Jobs currently running.\n")
	b.WriteString("# TYPE sharesimd_jobs_inflight gauge\n")
	fmt.Fprintf(&b, "sharesimd_jobs_inflight %d\n", m.inflight)
	writeMemSeries(&b)

	b.WriteString("# HELP sharesimd_job_duration_seconds Wall-clock latency of completed runs, per experiment.\n")
	b.WriteString("# TYPE sharesimd_job_duration_seconds histogram\n")
	exps := make([]string, 0, len(m.durations))
	for e := range m.durations {
		exps = append(exps, e)
	}
	sort.Strings(exps)
	for _, e := range exps {
		h := m.durations[e]
		var cum uint64
		for i, ub := range durationBuckets {
			cum += h.counts[i]
			fmt.Fprintf(&b, "sharesimd_job_duration_seconds_bucket{exp=%q,le=%q} %d\n", e, fmt.Sprintf("%g", ub), cum)
		}
		fmt.Fprintf(&b, "sharesimd_job_duration_seconds_bucket{exp=%q,le=\"+Inf\"} %d\n", e, h.total)
		fmt.Fprintf(&b, "sharesimd_job_duration_seconds_sum{exp=%q} %g\n", e, h.sum)
		fmt.Fprintf(&b, "sharesimd_job_duration_seconds_count{exp=%q} %d\n", e, h.total)
	}

	if m.cluster != nil {
		writeClusterSeries(&b, m.cluster())
	}
	if m.streams != nil {
		writeStreamSeries(&b, m.streams())
	}
	io.WriteString(w, b.String())
}

// writeMemSeries renders the process's mem pool gauge, shared by every
// role's registry: the arrays the replay engine and the cold path keep
// for reuse between jobs.
func writeMemSeries(b *strings.Builder) {
	b.WriteString("# HELP sharesimd_mem_pool_bytes Bytes of pooled arrays the process retains for reuse.\n")
	b.WriteString("# TYPE sharesimd_mem_pool_bytes gauge\n")
	fmt.Fprintf(b, "sharesimd_mem_pool_bytes %d\n", mem.PoolBytes())
}

// writeStreamSeries renders the stream-cache counter and gauge family;
// shared between the single/coordinator daemon registry and the
// worker-mode registry, which track different work but the same store.
func writeStreamSeries(b *strings.Builder, st streamcache.Stats) {
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"sharesimd_stream_builds_total", "Full workload-stream builds (both cache levels missed).", st.Builds},
		{"sharesimd_stream_hits_total", "Stream requests served from the in-process cache.", st.Hits},
		{"sharesimd_stream_misses_total", "Stream requests that missed the in-process cache.", st.Misses},
		{"sharesimd_stream_coalesced_total", "Stream requests coalesced onto an in-flight build.", st.Coalesced},
		{"sharesimd_stream_disk_hits_total", "Streams loaded from snapshot files.", st.DiskHits},
		{"sharesimd_stream_disk_misses_total", "Snapshot probes that found no usable file.", st.DiskMiss},
		{"sharesimd_stream_evictions_total", "Streams evicted from the in-process cache.", st.Evictions},
		{"sharesimd_stream_disk_evictions_total", "Snapshot files evicted by the disk budget.", st.DiskEvictions},
		{"sharesimd_stream_puts_total", "Snapshots installed from peers (cluster transfers).", st.Puts},
		{"sharesimd_stream_disk_read_bytes_total", "Snapshot bytes read from disk.", st.BytesRead},
		{"sharesimd_stream_disk_written_bytes_total", "Snapshot bytes written to disk.", st.BytesWritten},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}
	for _, g := range []struct {
		name, help string
		v          uint64
	}{
		{"sharesimd_stream_mem_bytes", "Stream bytes resident in the in-process cache.", st.BytesInMem},
		{"sharesimd_stream_entries", "Streams resident in the in-process cache.", uint64(st.Entries)},
		{"sharesimd_stream_disk_bytes", "Snapshot bytes resident in the on-disk store.", st.DiskBytes},
		{"sharesimd_stream_disk_files", "Snapshot files resident in the on-disk store.", uint64(st.DiskFiles)},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.v)
	}
}

// writeClusterSeries renders the coordinator's bundle-scheduler family.
func writeClusterSeries(b *strings.Builder, st cluster.CoordinatorStats) {
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"sharesimd_cluster_jobs_total", "Cluster jobs ever admitted.", uint64(st.Jobs)},
		{"sharesimd_bundles_done_total", "Bundles resolved successfully.", st.BundlesDone},
		{"sharesimd_bundles_requeued_total", "Lease expiries re-queued for another worker.", st.BundlesRequeued},
		{"sharesimd_bundles_failed_total", "Bundle results rejected or failed.", st.BundlesFailed},
		{"sharesimd_stream_serve_total", "Snapshot downloads served to workers.", st.StreamServes},
		{"sharesimd_stream_serve_bytes_total", "Snapshot bytes served to workers.", st.StreamBytes},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}
	for _, g := range []struct {
		name, help string
		v          int
	}{
		{"sharesimd_cluster_jobs_inflight", "Cluster jobs not yet terminal.", st.JobsInflight},
		{"sharesimd_bundles_pending", "Bundles queued and not yet leased.", st.BundlesPending},
		{"sharesimd_bundles_inflight", "Bundles leased to a worker right now.", st.BundlesInflight},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.v)
	}
}

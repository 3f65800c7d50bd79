package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"sharellc/internal/cluster"
	"sharellc/internal/mem"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// metrics is a small hand-rolled Prometheus registry of the Manager: its
// job counters and gauges and one latency histogram family. Every
// family a role serves — these, the mem pool's, the stream cache's, the
// coordinator's and the worker's — is rendered by writeFamilies in the
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

// family is one metric family: its HELP and TYPE lines and its series.
type family struct {
	name, help, kind string
	series           []series
}

// series is one sample of a family: a name suffix (a histogram's
// _bucket, _sum and _count), its labels and its value, rendered with %v
// (a count in decimal, a sum as %g).
type series struct {
	suffix, labels string
	v              any
}

func counter(name, help string, v any) family { return family{name, help, "counter", []series{{v: v}}} }
func gauge(name, help string, v any) family   { return family{name, help, "gauge", []series{{v: v}}} }

// writeFamilies renders families in order in the Prometheus text format.
func writeFamilies(w io.Writer, fams []family) {
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.series {
			b.WriteString(f.name + s.suffix)
			if s.labels != "" {
				b.WriteString("{" + s.labels + "}")
			}
			fmt.Fprintf(&b, " %v\n", s.v)
		}
	}
	io.WriteString(w, b.String())
}

// families snapshots the registry, with the mem pool's gauge before the
// histogram, deterministically ordered so scrapes (and tests) are stable.
func (m *metrics) families() []family {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := family{"sharesimd_jobs_total", "Jobs finished, by terminal state.", "counter", nil}
	for _, st := range []string{"done", "failed", "cancelled"} {
		jobs.series = append(jobs.series, series{labels: fmt.Sprintf("state=%q", st), v: m.jobsTotal[st]})
	}
	durations := family{"sharesimd_job_duration_seconds", "Wall-clock latency of completed runs, per experiment.", "histogram", nil}
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
			durations.series = append(durations.series, series{"_bucket", fmt.Sprintf("exp=%q,le=%q", e, fmt.Sprintf("%g", ub)), cum})
		}
		durations.series = append(durations.series,
			series{"_bucket", fmt.Sprintf("exp=%q,le=\"+Inf\"", e), h.total},
			series{"_sum", fmt.Sprintf("exp=%q", e), h.sum},
			series{"_count", fmt.Sprintf("exp=%q", e), h.total})
	}
	return []family{
		jobs,
		counter("sharesimd_cache_hits_total", "Result-cache hits.", m.cacheHits),
		counter("sharesimd_cache_misses_total", "Result-cache misses (jobs actually run).", m.cacheMisses),
		counter("sharesimd_jobs_coalesced_total", "Submissions coalesced onto an identical in-flight job.", m.coalesced),
		counter("sharesimd_jobs_rejected_total", "Submissions rejected (queue full or draining).", m.rejected),
		gauge("sharesimd_queue_depth", "Jobs queued and not yet running.", m.queueDepth),
		gauge("sharesimd_jobs_inflight", "Jobs currently running.", m.inflight),
		memFamily(),
		durations,
	}
}

// memFamily is the process's mem pool gauge, which every role serves:
// the arrays the replay engine and the cold path keep for reuse between
// jobs.
func memFamily() family {
	return gauge("sharesimd_mem_pool_bytes", "Bytes of pooled arrays the process retains for reuse.", mem.PoolBytes())
}

// laneMemoFamilies is the lane memo's family, served by a role that runs
// jobs in process.
func laneMemoFamilies(lanes *sim.LaneMemo) []family {
	hits, misses := lanes.Counts()
	return []family{
		counter("sharesimd_lane_memo_hits_total", "Experiment lanes served from the lane memo instead of a replay.", hits),
		counter("sharesimd_lane_memo_misses_total", "Experiment lanes the lane memo sent to a replay.", misses),
	}
}

// streamFamilies is the stream cache's family, served by every role
// that holds one.
func streamFamilies(st streamcache.Stats) []family {
	return []family{
		counter("sharesimd_stream_builds_total", "Full workload-stream builds (both cache levels missed).", st.Builds),
		counter("sharesimd_stream_hits_total", "Stream requests served from the in-process cache.", st.Hits),
		counter("sharesimd_stream_misses_total", "Stream requests that missed the in-process cache.", st.Misses),
		counter("sharesimd_stream_coalesced_total", "Stream requests coalesced onto an in-flight build.", st.Coalesced),
		counter("sharesimd_stream_disk_hits_total", "Streams loaded from snapshot files.", st.DiskHits),
		counter("sharesimd_stream_disk_misses_total", "Snapshot probes that found no usable file.", st.DiskMiss),
		counter("sharesimd_stream_evictions_total", "Streams evicted from the in-process cache.", st.Evictions),
		counter("sharesimd_stream_disk_evictions_total", "Snapshot files evicted by the disk budget.", st.DiskEvictions),
		counter("sharesimd_stream_puts_total", "Snapshots installed from peers (cluster transfers).", st.Puts),
		counter("sharesimd_stream_disk_read_bytes_total", "Snapshot bytes read from disk.", st.BytesRead),
		counter("sharesimd_stream_disk_written_bytes_total", "Snapshot bytes written to disk.", st.BytesWritten),
		gauge("sharesimd_stream_mem_bytes", "Stream bytes resident in the in-process cache.", st.BytesInMem),
		gauge("sharesimd_stream_entries", "Streams resident in the in-process cache.", st.Entries),
		gauge("sharesimd_stream_disk_bytes", "Snapshot bytes resident in the on-disk store.", st.DiskBytes),
		gauge("sharesimd_stream_disk_files", "Snapshot files resident in the on-disk store.", st.DiskFiles),
	}
}

// clusterFamilies is the coordinator's bundle-scheduler family.
func clusterFamilies(st cluster.CoordinatorStats) []family {
	return []family{
		counter("sharesimd_cluster_jobs_total", "Cluster jobs ever admitted.", st.Jobs),
		counter("sharesimd_bundles_done_total", "Bundles resolved successfully.", st.BundlesDone),
		counter("sharesimd_bundles_requeued_total", "Lease expiries re-queued for another worker.", st.BundlesRequeued),
		counter("sharesimd_bundles_failed_total", "Bundle results rejected or failed.", st.BundlesFailed),
		counter("sharesimd_stream_serve_total", "Snapshot downloads served to workers.", st.StreamServes),
		counter("sharesimd_stream_serve_bytes_total", "Snapshot bytes served to workers.", st.StreamBytes),
		gauge("sharesimd_cluster_jobs_inflight", "Cluster jobs not yet terminal.", st.JobsInflight),
		gauge("sharesimd_bundles_pending", "Bundles queued and not yet leased.", st.BundlesPending),
		gauge("sharesimd_bundles_inflight", "Bundles leased to a worker right now.", st.BundlesInflight),
	}
}

// workerFamilies is a worker's family.
func workerFamilies(st cluster.WorkerStats) []family {
	return []family{
		counter("sharesimd_worker_bundles_done_total", "Bundles executed and delivered successfully.", st.BundlesDone),
		counter("sharesimd_worker_bundles_erred_total", "Bundles delivered with an error outcome.", st.BundlesErred),
		counter("sharesimd_stream_fetch_total", "Peer/coordinator snapshot fetches attempted.", st.FetchTotal),
		counter("sharesimd_stream_fetch_ok_total", "Fetches that validated and installed.", st.FetchOK),
		counter("sharesimd_stream_fetch_bytes_total", "Snapshot bytes fetched from peers.", st.FetchBytes),
		counter("sharesimd_stream_fetch_errors_total", "Transfers that failed or validated badly (fell soft).", st.FetchErrors),
		counter("sharesimd_worker_lease_errors_total", "Control-plane round-trips that failed.", st.LeaseErrors),
		gauge("sharesimd_worker_busy", "Bundles executing right now.", st.Busy),
	}
}

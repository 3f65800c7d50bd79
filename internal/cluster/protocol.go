// Package cluster implements distributed job execution for sharesimd:
// a coordinator leases one work bundle per cell of a job's plan
// (sim.PlanJob) to polling workers over a small versioned HTTP protocol,
// each worker runs its cell (sim.Job.Run), and the plan merges the rows
// into the tables a single process renders, byte for byte
// (sim.Job.Tables). The package keeps leases, stream custody and gating;
// every choice of cell, suite and merge order is the plan's.
//
// The protocol is deliberately minimal (modeled on pull-based bundle
// distribution: workers poll for work, report health via heartbeats, and
// survive coordinator restarts because bundle IDs are deterministic):
//
//	POST /v1/cluster/lease                → 200 leaseResponse | 204 no work
//	POST /v1/cluster/bundles/{id}/heartbeat → 200 extends | 404 | 409 lease lost
//	POST /v1/cluster/bundles/{id}/result  → 200 accepted
//	GET  /v1/streams/{hash}               → snapshot image (any peer)
//
// Stream snapshots are the distribution artifact: bundles name the
// streams they need by content hash (streamcache.Key), and a worker
// fetches only hashes missing from its local store — from any listed
// source, or from the coordinator when the lease says it holds the
// stream — falling soft to a local build when every transfer fails or
// validates badly.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"sharellc/internal/cache"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
	"sharellc/internal/workloads"
)

// protoVersion is the bundle-protocol version. Every request carries it;
// a coordinator rejects mismatched workers with an enumerating error
// rather than silently mis-scheduling. Version 6 carries the daemon's
// one-experiment job request in each bundle, run on the default machine,
// and names the bundle's cell by its workload alone; a lease marks each
// stream the coordinator holds; every result is table-major rows.
const protoVersion = 6

// refFor names the content-addressed stream of the scaled model m at
// seed on the default machine, the stream a cell's suite requests.
func refFor(m workloads.Model, seed uint64) streamRef {
	return streamRef{Workload: m.Name, Seed: seed, Hash: streamcache.Key(m, cache.DefaultConfig(), seed)}
}

// streamRef names one prepared stream a bundle needs, by content hash.
type streamRef struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Hash     string `json:"hash"`
	// Sources lists the peers' base URLs known to hold the snapshot at
	// lease time, and Coordinator reports whether the coordinator holds
	// it; a worker tries the peers in order, then the coordinator, before
	// building locally.
	Sources     []string `json:"sources,omitempty"`
	Coordinator bool     `json:"coordinator,omitempty"`
}

// bundle is one leased unit of work: one cell of its job's plan (its
// experiment's shared replay and tables), over one workload for a
// per-workload spec or over the job's configuration for a whole spec.
type bundle struct {
	ID string `json:"id"`
	// Workload names a cell of sim.PlanJob(Request), the plan the worker
	// recomputes from the carried request.
	Workload string         `json:"workload,omitempty"` // empty for a whole-job spec
	Request  sim.JobRequest `json:"request"`
	Streams  []streamRef    `json:"streams,omitempty"`
}

// bundleID derives the deterministic bundle identifier. Determinism is
// load-bearing: a worker that leased a bundle from a coordinator that
// has since restarted can still deliver its result, because the
// resubmitted job regenerates bundles under identical IDs.
func bundleID(jobKey, exp, workload string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%s\x00%s", jobKey, exp, workload)))
	return "b-" + hex.EncodeToString(sum[:10])
}

// workerRequest is the body of the lease and the heartbeat POSTs.
type workerRequest struct {
	Proto int `json:"proto"`
	// Worker identifies the poller; when it is a reachable base URL the
	// coordinator also advertises it as a snapshot source to peers.
	Worker string `json:"worker"`
}

// leaseResponse grants one bundle for TTLMillis; the worker must
// heartbeat well within it (TTL/3 is the convention) or the bundle is
// re-queued for another worker.
type leaseResponse struct {
	Bundle    bundle `json:"bundle"`
	TTLMillis int64  `json:"ttl_ms"`
}

// heartbeatResponse echoes the remaining lease grant.
type heartbeatResponse struct {
	TTLMillis int64 `json:"ttl_ms"`
}

// bundleResult is the body of the result POST: on success the cell's
// rows as sim.EncodeRows JSON, on failure the error.
type bundleResult struct {
	Proto  int             `json:"proto"`
	Worker string          `json:"worker"`
	Err    string          `json:"error,omitempty"`
	Rows   json.RawMessage `json:"rows,omitempty"`
	// Built lists stream hashes resident on this worker after the run
	// (fetched or built), so the coordinator can advertise it as a source.
	Built []string `json:"built,omitempty"`
}

// checkProto validates a peer's protocol version. On a mismatch it
// answers the request itself, 400 with an enumerating error matching the
// repo's flag-parse conventions, and reports false.
func checkProto(w http.ResponseWriter, v int) bool {
	if v != protoVersion {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("unsupported protocol version %d (this node speaks: %d)", v, protoVersion))
	}
	return v == protoVersion
}

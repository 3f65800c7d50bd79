// Package cluster implements distributed sweep execution for sharesimd:
// a coordinator decomposes a suite request into work bundles sharded by
// (workload × LLC config table), leases them to polling workers over a
// small versioned HTTP protocol, and deterministically merges the
// returned rows back into the exact tables sim.Experiments produces —
// byte-identical to a single-process run.
//
// The protocol is deliberately minimal (modeled on pull-based bundle
// distribution: workers poll for work, report health via heartbeats, and
// survive coordinator restarts because bundle IDs are deterministic):
//
//	POST /v1/cluster/lease                → 200 LeaseResponse | 204 no work
//	POST /v1/cluster/bundles/{id}/heartbeat → 200 extends | 404 | 409 lease lost
//	POST /v1/cluster/bundles/{id}/result  → 200 accepted
//	GET  /v1/streams/{hash}               → snapshot image (any peer)
//
// Stream snapshots are the distribution artifact: bundles name the
// streams they need by content hash (streamcache.Key), and a worker
// fetches only hashes missing from its local store — from any listed
// source or the coordinator — falling soft to a local build when every
// transfer fails or validates badly.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"sharellc/internal/cache"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
	"sharellc/internal/workloads"
)

// ProtoVersion is the bundle-protocol version. Every request carries it;
// a coordinator rejects mismatched workers with an enumerating error
// rather than silently mis-scheduling.
const ProtoVersion = 1

// Request is a cluster sweep submission: one or more experiment ids over
// the knobs the daemon's job request shares (sim.Request). Unlike a job
// it allows several experiments per submission (the full-catalogue sweep
// is the cluster's unit of work) and an explicit machine config (diff
// harnesses run tiny non-default machines).
type Request struct {
	Exps []string `json:"exps"` // experiment ids; "all" expands to the whole catalogue
	// Machine overrides the simulated machine; nil means cache.DefaultConfig().
	Machine *cache.Config `json:"machine,omitempty"`
	sim.Request
}

// Normalize expands "all", validates every experiment id against the
// index, and normalizes the knobs. The normalized form is what Key
// hashes, so submissions differing only in omitted-vs-explicit defaults
// coalesce.
func (r *Request) Normalize() error {
	if len(r.Exps) == 0 {
		return errors.New("missing required field \"exps\"")
	}
	var exps []string
	seen := map[string]bool{}
	add := func(id string) error {
		if _, err := sim.ExperimentByID(id); err != nil {
			return err
		}
		if !seen[id] {
			seen[id] = true
			exps = append(exps, id)
		}
		return nil
	}
	for _, e := range r.Exps {
		e = strings.ToLower(strings.TrimSpace(e))
		if e == "all" {
			for _, id := range sim.ExperimentIDs() {
				if err := add(id); err != nil {
					return err
				}
			}
			continue
		}
		if err := add(e); err != nil {
			return err
		}
	}
	r.Exps = exps
	return r.Request.Normalize()
}

// Key is the canonical request hash: jobs, bundle IDs and result caching
// all derive from it, which is what lets a restarted coordinator re-adopt
// a resubmitted job's in-flight bundles.
func (r Request) Key() string {
	b, _ := json.Marshal(r)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// MachineConfig resolves the simulated machine.
func (r Request) MachineConfig() cache.Config {
	if r.Machine != nil {
		return *r.Machine
	}
	return cache.DefaultConfig()
}

// workloadOrder is the canonical suite order the merge reconstructs:
// the request's (normalized, sorted) workload list, or the full suite in
// catalogue order when the list is empty — the same order
// sim.NewSuiteContext prepares models in.
func (r Request) workloadOrder() []string {
	if len(r.Workloads) > 0 {
		return r.Workloads
	}
	suite := workloads.Suite()
	names := make([]string, len(suite))
	for i, m := range suite {
		names[i] = m.Name
	}
	return names
}

// scaledModel resolves one workload name to the scaled model the suite
// would prepare, replicating sim.NewSuiteContext's scaling exactly so
// stream hashes computed here match the ones the worker's suite requests.
func (r Request) scaledModel(name string) (workloads.Model, error) {
	m, err := workloads.ByName(name)
	if err != nil {
		return workloads.Model{}, err
	}
	if r.Scale != 1 {
		m = m.Scaled(r.Scale)
	}
	return m, nil
}

// streamRefFor names the content-addressed stream a workload of this
// request resolves to at the given seed.
func (r Request) streamRefFor(name string, seed uint64) (StreamRef, error) {
	m, err := r.scaledModel(name)
	if err != nil {
		return StreamRef{}, err
	}
	return StreamRef{
		Workload: name,
		Seed:     seed,
		Hash:     streamcache.Key(m, r.MachineConfig(), seed),
	}, nil
}

// StreamRef names one prepared stream a bundle needs, by content hash.
type StreamRef struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Hash     string `json:"hash"`
	// Sources lists base URLs (peers first, coordinator implicit) known
	// to hold the snapshot at lease time; a worker tries them in order
	// before building locally.
	Sources []string `json:"sources,omitempty"`
}

// WholeExperiment is the Bundle.Spec value of a bundle that runs an
// entire experiment rather than one table-spec slice (the experiments
// sim.PlanFor declines: they build their own streams or are static).
const WholeExperiment = -1

// Bundle is one leased unit of work: a single (experiment, table spec,
// workload) slice, or a whole experiment when Spec == WholeExperiment.
type Bundle struct {
	ID  string `json:"id"`
	Job string `json:"job"` // Request.Key() of the owning job
	Exp string `json:"exp"`
	// Spec indexes sim.PlanFor(Exp, Request.Options()); the worker
	// recomputes the same plan from the carried request, so the two sides
	// agree on parametrization by construction.
	Spec     int         `json:"spec"`
	Workload string      `json:"workload,omitempty"` // empty for whole-experiment bundles
	Request  Request     `json:"request"`
	Streams  []StreamRef `json:"streams,omitempty"`
}

// bundleID derives the deterministic bundle identifier. Determinism is
// load-bearing: a worker that leased a bundle from a coordinator that
// has since restarted can still deliver its result, because the
// resubmitted job regenerates bundles under identical IDs.
func bundleID(jobKey, exp string, spec int, workload string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%s\x00%d\x00%s", jobKey, exp, spec, workload)))
	return "b-" + hex.EncodeToString(sum[:10])
}

// LeaseRequest is the body of POST /v1/cluster/lease.
type LeaseRequest struct {
	Proto int `json:"proto"`
	// Worker identifies the poller; when it is a reachable base URL the
	// coordinator also advertises it as a snapshot source to peers.
	Worker string `json:"worker"`
}

// LeaseResponse grants one bundle for TTLMillis; the worker must
// heartbeat well within it (TTL/3 is the convention) or the bundle is
// re-queued for another worker.
type LeaseResponse struct {
	Bundle    Bundle `json:"bundle"`
	TTLMillis int64  `json:"ttl_ms"`
}

// HeartbeatRequest is the body of the heartbeat POST.
type HeartbeatRequest struct {
	Proto  int    `json:"proto"`
	Worker string `json:"worker"`
}

// HeartbeatResponse echoes the remaining lease grant.
type HeartbeatResponse struct {
	TTLMillis int64 `json:"ttl_ms"`
}

// BundleResult is the body of the result POST. Exactly one of Rows
// (spec bundles, sim.EncodeRows gob bytes) or Tables (whole-experiment
// bundles, canonical table JSON) is set on success.
type BundleResult struct {
	Proto  int               `json:"proto"`
	Worker string            `json:"worker"`
	Err    string            `json:"error,omitempty"`
	Rows   []byte            `json:"rows,omitempty"`
	Tables []json.RawMessage `json:"tables,omitempty"`
	// Built lists stream hashes resident on this worker after the run
	// (fetched or built), so the coordinator can advertise it as a source.
	Built []string `json:"built,omitempty"`
}

// checkProto validates a peer's protocol version with an enumerating
// error, matching the repo's flag-parse conventions.
func checkProto(v int) error {
	if v != ProtoVersion {
		return fmt.Errorf("unsupported protocol version %d (this node speaks: %d)", v, ProtoVersion)
	}
	return nil
}

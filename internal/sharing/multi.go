package sharing

// Fused multi-policy replay.
//
// The paper's headline tables are sweeps: the same prepared reference
// stream is replayed once per (policy, geometry) cell. ReplayMulti runs
// one pass over the stream that drives N independent LLC models
// ("lanes"), one per configuration. Each lane keeps its own replayState
// — shared/private residency classification depends on each lane's own
// eviction schedule, so no tracker state can be shared across lanes —
// but the shard partition is computed (or fetched from
// Options.Partitioner) once instead of once per cell, and the engine
// schedules the lanes so that the model state resident in cache at any
// moment is a small slice of the sweep's total, which is where the
// speedup over per-cell replay comes from (see the scheduling notes on
// replayLanes).
//
// Every lane takes one of two routes, decided by one property — whether
// its policy is per-set independent and carries no hooks:
//
//   - sharded lanes (per-set-independent policy, no hooks) replay
//     set-shard by set-shard: a worker that claims shard s gathers s's
//     accesses into a contiguous buffer once and walks it once per
//     lane, so one shard's slice of one lane's state — a fraction of a
//     megabyte — is all that competes for cache during a walk;
//   - two-phase lanes (every other lane) split the walk: a stream-order
//     policy pass drives just the cache and policy — whose state is a
//     couple of megabytes, cache-resident — and records each access's
//     outcome in a one-byte-per-access log, from which the tracker half
//     (the multi-megabyte arrays) then replays set-shard by set-shard
//     like a sharded lane. The protected lanes of the oracle and
//     predictor-driven studies are this kind (their policy carries its
//     own fill hint: oracle.Hinted, predictor.Driven), as are the lanes
//     that score predictors (predictor.ScoredLane) and hooked lanes,
//     whose hooks ride the policy pass (see hooked).
//
// A caller that reads less than the tracked census sets Options.Tier,
// and then every lane, sharded or not, runs as its policy pass alone: the
// replay walks no partition and builds no outcome log or tracker. Under
// CountsOnly the pass counts hits from the outcome words. Under
// SharedHitsOnly one reverse walk first builds the stream's streak column
// (how many more accesses each access's core makes to its block before
// another core's), and every pass classifies each residency it closes
// from that column and one hit count per line (streak.go).
//
// A replay that resolves to one shard — a short stream on one worker,
// or a one-set geometry — runs the same routes over a one-shard
// partition. A lane neither route can encode is rejected before any
// lane state is allocated: a two-phase lane wider than the outcome log's
// 6-bit way field, a lane with more lines than the outcome word's 30-bit
// line index, or a stream with more cores than the tracker's packed core
// word (see ReplayMulti).
//
// Every lane's Result is bit-identical to a stream-order walk of that
// lane alone: per-set policies see the same per-set access sequences
// regardless of how sets are grouped into shards, and the two-phase
// tracker re-enacts exactly the outcomes the stream-order policy pass
// produced. The package's tests keep that walk, with a struct-Residency
// tracker, as the reference both routes are diffed against
// (reference_test.go).

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// PartitionIndex is the counting-sort partition of a stream's positions
// by LLC set shard: Order lists every stream position grouped by shard
// (stream order within a shard), and shard s owns Order[Offs[s]:Offs[s+1]].
// Shard membership is Block & (Shards-1) — set-index bits are block
// bits, so for any cache whose set count is a multiple of Shards each
// set belongs entirely to one shard, which is what lets one partition
// serve lanes of different geometries. The partition depends only on
// (stream, Shards) and is immutable once built, so it is safe to share
// across concurrent replays. Cores is 1 + the highest Core in the stream
// (0 for an empty stream), which the same pass reads to check the
// tracker's core limit.
type PartitionIndex struct {
	Shards int
	Cores  int
	Order  []int32
	Offs   []int32
}

// Partitioner supplies the PartitionIndex for a shard count, typically
// from a per-stream cache (sim.Stream carries one).
type Partitioner func(shards int) (*PartitionIndex, error)

// BuildPartition counting-sorts the stream positions by shard so each
// shard worker can walk a contiguous index list in stream order. shards
// must be a power of two. The pass also validates the stream Index
// invariant (contiguous Index values starting at 0), so replays walking
// a partition need no per-access validation, and records the stream's
// core count.
func BuildPartition(stream []cache.AccessInfo, shards int) (*PartitionIndex, error) {
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("sharing: partition shard count %d is not a power of two", shards)
	}
	mask := uint64(shards - 1)
	counts := make([]int32, shards)
	cores := 0
	for i := range stream {
		if int(stream[i].Index) != i {
			return nil, errIndex(stream, i)
		}
		counts[stream[i].Block&mask]++
		cores = max(cores, int(stream[i].Core)+1)
	}
	offs := make([]int32, shards+1)
	for s := 0; s < shards; s++ {
		offs[s+1] = offs[s] + counts[s]
	}
	order := make([]int32, len(stream))
	pos := make([]int32, shards)
	copy(pos, offs[:shards])
	for i := range stream {
		s := stream[i].Block & mask
		order[pos[s]] = int32(i)
		pos[s]++
	}
	mem.Hugepages(order)
	return &PartitionIndex{Shards: shards, Cores: cores, Order: order, Offs: offs}, nil
}

// errIndex reports a break of the stream Index invariant at position i.
func errIndex(stream []cache.AccessInfo, i int) error {
	return fmt.Errorf("sharing: stream index %d at position %d; use cache.FilterStream ordering", stream[i].Index, i)
}

// LLCConfig describes one lane of a fused replay: an LLC geometry, a
// policy factory and optional per-lane hooks.
//
// NewPolicy must return a fresh, identically-initialized instance on
// every call (the standard policy.Factory contract): it is called once
// up front to probe per-set independence, and — for sharded lanes —
// once more per worker. A two-phase lane (cross-set policy state, or
// hooks) runs exactly one stream-order policy pass of that probe
// instance, so it calls NewPolicy exactly once in total, which is what
// lets callers stash the built instance (e.g. to read protector stats
// after the replay).
type LLCConfig struct {
	Size      int // LLC capacity in bytes
	Ways      int
	NewPolicy func() cache.Policy
	// Hooks observe this lane only, in stream order. A lane with any
	// hook installed runs two-phase, its hooks riding the policy pass.
	Hooks Hooks
}

// lane is the engine-side state of one configuration.
type lane struct {
	cfg       LLCConfig
	sets      int
	inst      cache.Policy // probe instance; a two-phase lane's policy pass runs it
	shardable bool

	// Shared flat state of the lane; every index range is owned
	// by exactly one shard (tracker columns by set, active/blockState by
	// block), so concurrent writes never collide.
	soa        *soaCols // the residency tracker (see tracker.go)
	active     []uint32
	blockState []uint8
	parts      []*Result // per-shard partial results

	// lineID is a sharded lane's probe reverse map, line → BlockID
	// (the inverse of active). Like soa, index ranges are owned per
	// shard.
	lineID []uint32

	// log records the cache outcome of every stream access for a
	// two-phase lane; nil otherwise. It is in partition order — shard
	// s's bytes contiguous at Offs[s], stream order within the segment —
	// so every tracker shard reads its slice sequentially instead of
	// gathering 1/P of the bytes out of each cache line of a
	// stream-ordered log. ring is the chunked pipeline over it between
	// the policy pass and the tracker shards.
	log  []uint8
	ring *logRing

	result *Result
}

// errPolicyPassFailed is what a tracker shard waiting on a pipeline
// ring returns when the lane's policy pass died: a sentinel, so the
// replay can prefer the producer's own error over the consumers'
// echoes of it.
var errPolicyPassFailed = errors.New("sharing: policy pass failed; tracker replay aborted")

// logRing is the chunked outcome-log pipeline of one two-phase lane:
// the policy pass publishes the log watermark after each completed
// chunk, and tracker shard workers wait for their chunk's range before
// consuming it, so the two passes overlap instead of summing. The
// atomic watermark is monotonic and published after the log bytes are
// written (Go's atomics order the store), so a consumer that observes
// published ≥ n may read log[:n] without the lock; the mutex/cond pair
// only parks consumers that arrived early.
type logRing struct {
	published atomic.Int64
	failed    atomic.Bool
	mu        sync.Mutex
	cond      sync.Cond
}

func newLogRing() *logRing {
	r := &logRing{}
	r.cond.L = &r.mu
	return r
}

// publish makes log[:n] visible to waiting consumers.
func (r *logRing) publish(n int64) {
	r.published.Store(n)
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// fail wakes every waiter without moving the watermark; their pending
// waits (and all future ones past the watermark) return
// errPolicyPassFailed. Chunks at or below the watermark stay valid —
// they were fully written before the pass died.
func (r *logRing) fail() {
	r.failed.Store(true)
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// wait blocks until log[:n] is published, or the producer fails.
func (r *logRing) wait(n int64) error {
	if r.published.Load() >= n {
		return nil
	}
	r.mu.Lock()
	for r.published.Load() < n && !r.failed.Load() {
		r.cond.Wait()
	}
	r.mu.Unlock()
	if r.published.Load() < n {
		return errPolicyPassFailed
	}
	return nil
}

// Outcome log encoding of the two-phase split: one byte per access.
// Way numbers fit six bits, so 64 ways is the widest two-phase lane.
const (
	logWayMask = uint8(1<<6 - 1)
	logHit     = uint8(1 << 6)
	logEvict   = uint8(1 << 7)
	logMaxWays = 64
)

// ReplayMulti replays stream once through every configuration in
// configs and returns one Result per configuration, in order, each
// bit-identical to a stream-order walk of that configuration alone. It
// is the package's only replay entry point; a single replay is a
// one-config call.
//
// The stream must have contiguous Index values starting at 0 (as
// produced by cache.FilterStream); the replay validates this because the
// oracle keys its knowledge by stream index. Streams whose BlockIDs were
// never assigned (hand-built, or filtered without annotation) are copied
// and assigned on the fly.
//
// Options apply to every lane; hooks are per-lane (LLCConfig.Hooks).
// Options.Shards bounds the number of concurrent workers only — the
// set-partition granularity is picked internally for cache locality and
// never affects results.
//
// ReplayMulti returns an error, before it allocates any lane state, for
// a lane with more than maxLines lines, a two-phase lane with more than
// logMaxWays ways, and a stream with more than soaMaxCores cores.
func ReplayMulti(stream []cache.AccessInfo, configs []LLCConfig, opt Options) ([]*Result, error) {
	if len(configs) == 0 {
		return nil, nil
	}
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	lanes := make([]*lane, len(configs))
	maxSets := 1
	for i, c := range configs {
		if c.NewPolicy == nil {
			return nil, fmt.Errorf("sharing: ReplayMulti config %d has no policy factory", i)
		}
		sets, err := cache.Geometry(c.Size, c.Ways)
		if err != nil {
			return nil, err
		}
		if sets*c.Ways > maxLines {
			return nil, fmt.Errorf("sharing: config %d has %d lines; a replay lane holds at most %d", i, sets*c.Ways, maxLines)
		}
		inst := c.NewPolicy()
		if c.Hooks.any() {
			inst = newHooked(inst, c.Hooks)
		}
		l := &lane{cfg: c, sets: sets, inst: inst, shardable: cache.PerSetIndependent(inst)}
		if !l.shardable && c.Ways > logMaxWays {
			return nil, fmt.Errorf("sharing: config %d (%s) has %d ways; a lane with hooks or cross-set policy state replays two-phase, at most %d ways",
				i, inst.Name(), c.Ways, logMaxWays)
		}
		if sets > maxSets {
			maxSets = sets
		}
		lanes[i] = l
	}
	workers := resolveShards(len(stream), maxSets, opt)
	if err := replayLanes(stream, lanes, workers, opt); err != nil {
		return nil, err
	}
	results := make([]*Result, len(lanes))
	for i, l := range lanes {
		results[i] = l.result
	}
	return results, nil
}

// maxLines is the most lines one lane may hold: the outcome word's
// 30-bit line index (cache.BatchLine).
const maxLines = int(cache.BatchLine) + 1

// blockBudget is the target size of one shard's slice of one lane's
// model state. Replay cost is dominated by dependent loads of tracker,
// tag and policy state at random set indices, so the blocking
// granularity — not stream bandwidth — decides throughput: the shard
// walk runs one lane at a time over the shard, and when that lane's
// slice fits in L2-sized cache the walk runs out of cache no matter how
// large the sweep's total state is.
const blockBudget = 512 << 10

// laneLineBytes approximates the combined tracker, tag and
// policy bytes behind one (set, way) of one lane, and laneBlockBytes
// the cache footprint behind one distinct block (its active and
// blockState entries — dense within a shard thanks to the shard-major
// ID layout of cache.AssignBlockIDs). Both are used only to pick the
// blocking granularity.
const (
	laneLineBytes  = 128
	laneBlockBytes = 8
	// accessBytes weighs one access of the gathered shard buffer. It is
	// a tuned weight, not sizeof(cache.AccessInfo) (32 bytes): at the
	// record size, 16 of the 22 full-size streams would drop from 128 to
	// 64 shards, which measured no faster and used more memory.
	accessBytes = 56
)

// blockShards picks the set-partition granularity of the tracker
// walk: enough shards that one shard's slice of the largest lane's
// model state fits blockBudget, at least the worker count so every
// worker can claim a shard, at most the smallest sharded lane's set
// count so a shard never splits a set (all three bounds are powers of two,
// as is the result, so shard membership stays a mask of block bits).
// The cap matches the shard-major block-ID layout (cache.IDGroupBits):
// up to that many shards, each shard's per-block state is a few dense
// ID ranges; beyond it, the ranges would fragment again.
func blockShards(hotBytes, minSets, workers int) int {
	p := 1
	for p < 1<<cache.IDGroupBits && hotBytes/p > blockBudget {
		p <<= 1
	}
	if p < workers {
		p = workers
	}
	if p > minSets {
		p = floorPow2(minSets)
	}
	return p
}

// replayLanes is the fused engine behind ReplayMulti. It turns the
// lanes into a task list — one stream-order policy pass per two-phase
// lane (per lane in an untracked replay), then one task per set shard
// covering every lane's tracker walk (none in an untracked replay) —
// and runs the tasks on `workers` concurrent workers, leaving each
// lane's merged Result in lane.result.
//
// The scheduling is chosen for memory locality, which is what replay
// throughput is bound by (the stream itself is read sequentially and is
// a minor cost next to the random-indexed model state):
//
//   - policy passes run lane-serial, so exactly one lane's cache and
//     policy state (a few MB) is resident per worker;
//   - shard tasks step every lane over one shard's accesses, and a
//     shard's slice of the combined lane state is capped near
//     blockBudget by blockShards, so the sharded walk runs out of cache
//     even when the lanes' total state is hundreds of MB. Workers reuse
//     one LLC+policy instance per sharded lane across the shards they
//     claim (see runShard).
//
// Policy passes are claimed before shard tasks because they are the long
// ones — a full-stream walk each, against 1/P of the stream per shard
// task — and because the tracker shards of a two-phase lane wait on its
// pass.
func replayLanes(stream []cache.AccessInfo, lanes []*lane, workers int, opt Options) error {
	stream, numBlocks := ensureBlockIDs(stream, opt)
	mem.Hugepages(stream)
	minSets, hotBytes := 0, 0
	for _, l := range lanes {
		if minSets == 0 || l.sets < minSets {
			minSets = l.sets
		}
		// One lane walk touches the lane's tracker/tag/policy lines, the
		// active/blockState entries of the shard's blocks, and the
		// shard's gathered accesses — all three shrink with the shard
		// count, so all three belong in the blocking budget.
		hb := l.sets*l.cfg.Ways*laneLineBytes + numBlocks*laneBlockBytes + len(stream)*accessBytes
		if hb > hotBytes {
			hotBytes = hb
		}
	}
	// An untracked replay (SharedHitsOnly or CountsOnly) has no shard
	// tasks: every lane is a policy pass, and the pass-column walk checks
	// the stream instead.
	tracked := opt.Tier == Tracked
	shards, cores := 0, 0
	var part *PartitionIndex
	if tracked {
		shards = blockShards(hotBytes, minSets, workers)
		var err error
		if opt.Partitioner != nil {
			part, err = opt.Partitioner(shards)
			if err == nil && (part.Shards != shards || len(part.Order) != len(stream)) {
				err = fmt.Errorf("sharing: partitioner returned a partition for %d shards / %d accesses, want %d / %d",
					part.Shards, len(part.Order), shards, len(stream))
			}
		} else {
			part, err = BuildPartition(stream, shards)
		}
		if err != nil {
			return err
		}
		cores = part.Cores
	}
	var shardLanes, phaseLanes []*lane
	for _, l := range lanes {
		if l.shardable && tracked {
			shardLanes = append(shardLanes, l)
		} else {
			phaseLanes = append(phaseLanes, l)
		}
	}
	// The policy passes share one whole-stream block/BlockID column
	// pair instead of each streaming the 32-byte records to re-derive
	// it (see runPolicyPassBatch).
	var passBlk []uint64
	var passID []uint32
	if len(phaseLanes) > 0 {
		passBlk = grab(&scratch.blks, len(stream), false)
		passID = grab(&scratch.cols, len(stream), false)
		c, err := decodePassColumns(stream, passBlk, passID)
		if err != nil {
			return err
		}
		cores = max(cores, c)
	}
	if cores > soaMaxCores {
		return fmt.Errorf("sharing: stream has %d cores; the replay tracks at most %d", cores, soaMaxCores)
	}
	// Every shared-hit pass reads the one streak column.
	var streak []uint32
	if opt.Tier == SharedHitsOnly {
		streak = grab(&scratch.cols, len(stream), false)
		buildStreaks(stream, numBlocks, streak)
	}

	// Tracker scratch comes from the pool (see scratch.go).
	if tracked {
		for _, l := range lanes {
			l.soa = grabSoA(l.sets * l.cfg.Ways)
			l.active = grab(&scratch.words, numBlocks, false)
			l.blockState = grab(&scratch.bytes, numBlocks, true)
			l.parts = make([]*Result, shards)
			if l.shardable {
				l.lineID = grab(&scratch.cols, l.sets*l.cfg.Ways, false)
			} else {
				l.log = grab(&scratch.bytes, len(stream), false)
				l.ring = newLogRing()
			}
		}
	}

	// Each policy pass streams its log to the tracker shards through the
	// lane's ring, so shard workers start as soon as every pass is
	// claimed and wait per chunk.
	if workers < 1 {
		workers = 1
	}
	if n := len(phaseLanes) + len(lanes)*shards; workers > n {
		workers = n
	}
	var passNext, shardNext int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t := int(atomic.AddInt64(&passNext, 1) - 1)
				if t >= len(phaseLanes) {
					break
				}
				l := phaseLanes[t]
				if errs[w] = runPolicyPassBatch(stream, numBlocks, part, passBlk, passID, streak, l, opt); errs[w] != nil {
					// Wake the tracker shards parked on this lane's ring:
					// nobody will rerun the pass, and the error makes the
					// whole replay fail.
					if l.ring != nil {
						l.ring.fail()
					}
					return
				}
			}
			// The shard walk pipelines against the policy passes through
			// the rings: every pass task was claimed above before any
			// worker reaches this point, so each ring's producer is
			// guaranteed to run.
			var llcs []*cache.SetAssoc
			var buf []cache.AccessInfo
			var bs *batchScratch
			for {
				s := int(atomic.AddInt64(&shardNext, 1) - 1)
				if s >= shards {
					put(&scratch.accs, buf)
					if bs != nil {
						put(&scratch.blks, bs.blk)
						put(&scratch.cols, bs.id)
						put(&scratch.bytes, bs.meta)
						put(&scratch.blks, bs.ecw)
						put(&scratch.blks, bs.ehits)
						put(&scratch.cols, bs.eid)
						put(&scratch.cols, bs.out)
					}
					return
				}
				if bs == nil {
					llcs = make([]*cache.SetAssoc, len(shardLanes))
					for j, l := range shardLanes {
						llc, err := cache.NewSetAssoc(l.cfg.Size, l.cfg.Ways, l.cfg.NewPolicy())
						if err != nil {
							errs[w] = err
							return
						}
						llcs[j] = llc
					}
					max := 0
					for t := 0; t < shards; t++ {
						if n := int(part.Offs[t+1] - part.Offs[t]); n > max {
							max = n
						}
					}
					buf = grab(&scratch.accs, max, false)
					bs = &batchScratch{
						blk:   grab(&scratch.blks, max, false),
						id:    grab(&scratch.cols, max, false),
						meta:  grab(&scratch.bytes, max, false),
						out:   grab(&scratch.cols, batchSize, false),
						ecw:   grab(&scratch.blks, batchSize, false),
						ehits: grab(&scratch.blks, batchSize, false),
						eid:   grab(&scratch.cols, batchSize, false),
					}
				}
				if errs[w] = runShard(stream, shardLanes, phaseLanes, part, s, llcs, buf, bs, opt); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// A tracker shard that died waiting on a ring reports the sentinel;
	// the producer's own error is the useful one, so prefer any other.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, errPolicyPassFailed) {
			return err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	put(&scratch.blks, passBlk)
	put(&scratch.cols, passID)
	put(&scratch.cols, streak)
	if !tracked {
		return nil // each pass left its lane's Result in l.result
	}
	for _, l := range lanes {
		l.result = mergeLane(l.inst.Name(), l.parts, l.blockState)
		putSoA(l.soa)
		put(&scratch.words, l.active)
		put(&scratch.bytes, l.blockState)
		put(&scratch.cols, l.lineID)
		put(&scratch.bytes, l.log)
	}
	return nil
}

// runShard walks shard s's accesses once per sharded lane and once per
// two-phase lane, one lane at a time. The shard's accesses are
// first gathered from the stream into buf (the worker's reusable
// scratch, cap ≥ any shard's length) and decoded once into the worker's
// columns (bs): the gather's strided loads are paid once per shard, and
// every lane then reads contiguous, prefetch-friendly columns. Walking
// lanes one after another — rather than interleaving accesses across
// lanes — keeps exactly one lane's shard slice (≈ blockBudget bytes)
// resident for the whole walk and every policy call site monomorphic;
// re-reading the columns per lane is sequential and nearly free by
// comparison.
//
// Lane state slices are shared across workers with disjoint ownership
// (see lane). The caches in llcs (one per sharded lane) belong to the
// calling worker and persist across every shard it claims — valid
// precisely because sharded lanes are per-set independent and shards
// own disjoint sets, so state the previous shard left behind is state
// the next shard never reads. Two-phase lanes have no cache or policy
// here at all: their walk is the tracker half only, re-enacting the
// outcome log their policy pass recorded.
func runShard(stream []cache.AccessInfo, lanes, phaseLanes []*lane, part *PartitionIndex, s int, llcs []*cache.SetAssoc, buf []cache.AccessInfo, bs *batchScratch, opt Options) error {
	order := part.Order[part.Offs[s]:part.Offs[s+1]]
	accs := buf[:len(order)]
	for k, idx := range order {
		accs[k] = stream[idx]
	}
	decodeColumns(accs, bs.blk, bs.id, bs.meta)
	for j, l := range lanes {
		st := l.shardState()
		if err := runLaneBatch(llcs[j], l, st, bs, accs, opt); err != nil {
			return err
		}
		st.closeAliveSoA(l.sets, l.cfg.Ways, part.Shards, s)
		l.parts[s] = st.res
	}
	for _, l := range phaseLanes {
		st := l.shardState()
		if err := runPhaseLaneBatch(l, st, bs, len(accs), order, int(part.Offs[s]), opt); err != nil {
			return err
		}
		st.closeAliveSoA(l.sets, l.cfg.Ways, part.Shards, s)
		l.parts[s] = st.res
	}
	return nil
}

// shardState is a lane's tracker for one shard walk: the lane's
// shared columns and tables, and a fresh partial Result for the shard.
func (l *lane) shardState() *replayState {
	return &replayState{
		res:        newResult(l.inst.Name()),
		cols:       l.soa,
		active:     l.active,
		blockState: l.blockState,
	}
}

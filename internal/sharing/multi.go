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
// Lanes split into three groups:
//
//   - shardable lanes (per-set-independent policy, no hooks) replay
//     set-shard by set-shard: a worker that claims shard s gathers s's
//     accesses into a contiguous buffer once and walks it once per
//     lane, so one shard's slice of one lane's state — a fraction of a
//     megabyte — is all that competes for cache during a walk;
//   - two-phase lanes (cross-set policy state, no hooks) split the
//     walk: a stream-order policy pass drives just the cache and
//     policy — whose state is a couple of megabytes, cache-resident —
//     and records each access's outcome in a one-byte-per-access log,
//     from which the tracker half (the multi-megabyte arrays) then
//     replays set-shard by set-shard like a shardable lane. The
//     protected lanes of the oracle and predictor-driven studies are
//     this kind: their policy carries its own fill hint
//     (oracle.Hinted, predictor.Driven), and the policy pass presents
//     the fills in stream order, as the sequential walk does. So are
//     the lanes that score predictors (predictor.EvaluateMulti);
//   - sequential lanes replay one lane at a time, each as its own
//     full-stream walk in stream order (runSeqLane). A lane lands
//     here when the engine's encodings cannot carry it: per-lane hooks
//     (they observe the walk's residencies and stream order), a
//     cross-set policy with more ways than the outcome log's 6-bit
//     field, more lines than the outcome word's 30-bit line index, or
//     a stream with more cores than the tracker's packed core word
//     (see replayLanes).
//
// Every lane's Result is bit-identical to the sequential walk of that
// lane alone: per-set policies see the same per-set access sequences
// regardless of how sets are grouped into shards, the two-phase tracker
// re-enacts exactly the outcomes the stream-order policy pass produced,
// and sequential lanes are that walk.

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
// (0 for an empty stream), which the same pass reads for lane routing.
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
// must be a power of two ≥ 2. The pass also validates the stream Index
// invariant (contiguous Index values starting at 0), so replays walking
// a partition need no per-access validation, and records the stream's
// core count.
func BuildPartition(stream []cache.AccessInfo, shards int) (*PartitionIndex, error) {
	if shards < 2 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("sharing: partition shard count %d is not a power of two >= 2", shards)
	}
	mask := uint64(shards - 1)
	counts := make([]int32, shards)
	cores := 0
	for i := range stream {
		if int(stream[i].Index) != i {
			return nil, fmt.Errorf("sharing: stream index %d at position %d; use cache.FilterStream ordering", stream[i].Index, i)
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

// LLCConfig describes one lane of a fused replay: an LLC geometry, a
// policy factory and optional per-lane hooks.
//
// NewPolicy must return a fresh, identically-initialized instance on
// every call (the standard policy.Factory contract): it is called once
// up front to probe per-set independence, and — for per-set-independent
// lanes replayed sharded — once more per worker. Lanes whose policy
// keeps cross-set state run exactly one stream-order walk of that probe
// instance (the policy pass of the two-phase split, or the whole lane
// when sequential), so they call NewPolicy exactly once in total. A
// lane with hooks always replays as a sequential walk, likewise one
// call in total, which is what lets callers stash the built instance
// (e.g. to read protector stats after the replay).
type LLCConfig struct {
	Size      int // LLC capacity in bytes
	Ways      int
	NewPolicy func() cache.Policy
	// Hooks observe this lane only. Lanes with any hook installed are
	// pinned to the sequential walk, because hooks observe stream order.
	Hooks Hooks
}

// lane is the engine-side state of one configuration.
type lane struct {
	cfg       LLCConfig
	sets      int
	inst      cache.Policy // probe instance; replays the lane when sequential
	shardable bool

	// Shared flat state of the engine lanes; every index range is owned
	// by exactly one shard (tracker columns by set, active/blockState by
	// block), so concurrent writes never collide.
	soa        *soaCols // the residency tracker (see tracker.go)
	active     []uint32
	blockState []uint8
	parts      []*Result // per-shard partial results

	// lineID is a shardable lane's probe reverse map, line → BlockID
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
// Way numbers fit six bits (64-way is the widest supported geometry —
// wider lanes fall back to a plain sequential walk).
const (
	logWayMask = uint8(1<<6 - 1)
	logHit     = uint8(1 << 6)
	logEvict   = uint8(1 << 7)
	logMaxWays = 64
)

// ReplayMulti replays stream once through every configuration in
// configs and returns one Result per configuration, in order, each
// bit-identical to the sequential walk of that configuration alone. It
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
		l := &lane{cfg: c, sets: sets, inst: c.NewPolicy()}
		l.shardable = !c.Hooks.any() && cache.PerSetIndependent(l.inst)
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

// blockShards picks the set-partition granularity for the sharded
// lanes: enough shards that one shard's slice of the largest lane's
// model state fits blockBudget, at least the worker count so every
// worker can claim a shard, at most the smallest sharded lane's set
// count so a shard never splits a set (both bounds are powers of two,
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
// lanes into a task list — one full-stream walk per sequential lane,
// one task per set shard for the shardable group — and runs the tasks
// on `workers` concurrent workers, leaving each lane's merged Result in
// lane.result.
//
// The scheduling is chosen for memory locality, which is what replay
// throughput is bound by (the stream itself is read sequentially and is
// a minor cost next to the random-indexed model state):
//
//   - sequential lanes run lane-serial, so exactly one lane's model
//     state (a few MB) is resident per worker — interleaving them would
//     cycle every lane's state through cache between two uses of any
//     one lane's;
//   - shard tasks step all shardable lanes over one shard's accesses,
//     and a shard's slice of the combined lane state is capped near
//     blockBudget by blockShards, so the sharded walk runs out of cache
//     even when the lanes' total state is hundreds of MB. Workers reuse
//     one LLC+policy instance per lane across the shards they claim
//     (see runShard).
//
// Sequential tasks are scheduled before shard tasks because they are
// the long ones: a full-stream walk per task, against 1/P of the stream
// per shard task.
func replayLanes(stream []cache.AccessInfo, lanes []*lane, workers int, opt Options) error {
	stream, numBlocks := ensureBlockIDs(stream, opt)
	mem.Hugepages(stream)
	// A lane rides the engine's set-sharded tracker walk either whole
	// (shardable: per-set-independent policy, no hooks) or split
	// (two-phase: any hook-free policy whose way numbers fit the outcome
	// log — the policy pass runs in stream order, the tracker pass
	// shards). Either way its line index must fit the outcome word's
	// 30-bit field (over a billion lines). Every other lane walks
	// sequentially.
	engine := func(l *lane) bool {
		if l.cfg.Hooks.any() || l.sets*l.cfg.Ways > int(cache.BatchLine)+1 {
			return false
		}
		return l.shardable || l.cfg.Ways <= logMaxWays
	}
	minSets, hotBytes := 0, 0
	for _, l := range lanes {
		if !engine(l) {
			continue
		}
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
	shards := 1
	if minSets > 1 {
		shards = blockShards(hotBytes, minSets, workers)
	}
	var part *PartitionIndex
	if shards > 1 {
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
		// The tracker packs a residency's cores into one word, so a
		// stream with wider cores sends every lane to the sequential
		// walk.
		if part.Cores > soaMaxCores {
			part, shards = nil, 1
		}
	}
	var shardLanes, phaseLanes, seqLanes []*lane
	for _, l := range lanes {
		switch {
		case shards == 1 || !engine(l):
			seqLanes = append(seqLanes, l)
		case l.shardable:
			shardLanes = append(shardLanes, l)
		default:
			phaseLanes = append(phaseLanes, l)
		}
	}
	engineLanes := append(append([]*lane(nil), shardLanes...), phaseLanes...)

	var passBlk []uint64
	var passID []uint32
	if len(engineLanes) > 0 {
		// Tracker scratch comes from the pool (see scratch.go).
		for _, l := range engineLanes {
			l.soa = grabSoA(l.sets * l.cfg.Ways)
			l.active = grab(&scratch.words, numBlocks, false)
			l.blockState = grab(&scratch.bytes, numBlocks, true)
			l.parts = make([]*Result, shards)
		}
		for _, l := range shardLanes {
			l.lineID = grab(&scratch.cols, l.sets*l.cfg.Ways, false)
		}
		for _, l := range phaseLanes {
			l.log = grab(&scratch.bytes, len(stream), false)
			l.ring = newLogRing()
		}
		// The policy passes share one whole-stream block/BlockID column
		// pair instead of each streaming the 32-byte records to re-derive
		// it (see runPolicyPassBatch).
		if len(phaseLanes) > 0 {
			passBlk = grab(&scratch.blks, len(stream), false)
			passID = grab(&scratch.cols, len(stream), false)
			decodePassColumns(stream, passBlk, passID)
		}
	}

	// Stream-order tasks: the policy passes of the two-phase lanes come
	// first, then the sequential lanes. Each pass streams its log to the
	// tracker shards through the lane's ring, so shard workers start as
	// soon as every task is claimed and wait per chunk.
	tasks := len(phaseLanes) + len(seqLanes)
	if workers < 1 {
		workers = 1
	}
	if n := tasks + len(engineLanes)*shards; workers > n {
		workers = n
	}
	var seqNext, shardNext int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t := int(atomic.AddInt64(&seqNext, 1) - 1)
				if t >= tasks {
					break
				}
				if t < len(phaseLanes) {
					l := phaseLanes[t]
					if errs[w] = runPolicyPassBatch(stream, numBlocks, part, passBlk, passID, l, opt); errs[w] != nil {
						// Wake the tracker shards parked on this lane's
						// ring: nobody will rerun the pass, and the error
						// makes the whole replay fail.
						l.ring.fail()
						return
					}
				} else if errs[w] = runSeqLane(stream, numBlocks, seqLanes[t-len(phaseLanes)], opt); errs[w] != nil {
					return
				}
			}
			if len(engineLanes) == 0 {
				return
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
	for _, l := range engineLanes {
		l.result = mergeLane(l.inst.Name(), l.parts, l.blockState)
		putSoA(l.soa)
		put(&scratch.words, l.active)
		put(&scratch.bytes, l.blockState)
		put(&scratch.cols, l.lineID)
		put(&scratch.bytes, l.log)
	}
	return nil
}

// runSeqLane replays one sequential lane over the whole stream in stream
// order — Index validation, hook dispatch and the struct tracker —
// writing the finished Result to l.result. It is the walk every engine
// path is tested against.
func runSeqLane(stream []cache.AccessInfo, numBlocks int, l *lane, opt Options) error {
	pol := l.inst
	var hint *hookHint
	if fh, ok := pol.(fillHinter); ok && l.cfg.Hooks.PredictShared != nil {
		hint = &hookHint{fillHinter: fh}
		pol = hint
	}
	llc, err := cache.NewSetAssoc(l.cfg.Size, l.cfg.Ways, pol)
	if err != nil {
		return err
	}
	st := &replayState{
		res:        newResult(l.inst.Name()),
		lines:      grab(&scratch.lines, l.sets*l.cfg.Ways, false),
		active:     grab(&scratch.words, numBlocks, false),
		blockState: grab(&scratch.bytes, numBlocks, true),
		hooks:      l.cfg.Hooks,
		hint:       hint,
		ctx:        opt.Ctx,
	}
	if err := st.run(llc, stream); err != nil {
		return err
	}
	st.closeAlive()
	census(st.res, st.blockState)
	l.result = st.res
	put(&scratch.lines, st.lines)
	put(&scratch.words, st.active)
	put(&scratch.bytes, st.blockState)
	return nil
}

// runShard walks shard s's accesses once per shardable lane and once
// per two-phase lane, one lane at a time. The shard's accesses are
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
// (see lane). The caches in llcs (one per shardable lane) belong to the
// calling worker and persist across every shard it claims — valid
// precisely because shardable lanes are per-set independent and shards
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

// shardState is an engine lane's tracker for one shard walk: the lane's
// shared columns and tables, and a fresh partial Result for the shard.
func (l *lane) shardState() *replayState {
	return &replayState{
		res:        newResult(l.inst.Name()),
		cols:       l.soa,
		active:     l.active,
		blockState: l.blockState,
	}
}

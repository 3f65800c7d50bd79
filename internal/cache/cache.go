// Package cache models the CMP memory system of the paper: per-core
// private L1 and L2 caches and a shared last-level cache (LLC).
//
// The model is functional, not timed: the experiments in the paper compare
// hit/miss volumes across replacement policies, so only placement,
// replacement and eviction are simulated.
//
// The private levels are fixed LRU filters with a small cache type of
// their own (their replacement policy is not under study). The LLC is a
// SetAssoc with a pluggable Policy so that every policy in
// internal/policy, the sharing oracle and the predictors can drive it.
package cache

import (
	"fmt"
	"math"

	"sharellc/internal/mem"
	"sharellc/internal/trace"
)

// AccessInfo describes one reference presented to the LLC.
//
// The fields are ordered widest first, so the record packs into 32 bytes
// with no interior padding: a full-size suite keeps twelve million of
// them resident. TestAccessInfoSize pins the size.
type AccessInfo struct {
	Block uint64 // cache-block number (byte address >> trace.BlockShift)
	PC    uint64 // program counter of the triggering instruction

	// Index is the position of this access in the LLC reference stream.
	// A stream holds at most MaxStreamLen records, so it fits an int32.
	Index int32

	// NextUse is the stream index of the next access to the same block,
	// or NoNextUse if the block is never referenced again. It is
	// precomputed by the experiment pipeline and consumed only by the
	// Belady OPT policy.
	NextUse int32

	// BlockID is the dense per-stream identifier of Block: distinct blocks
	// of one stream get consecutive IDs starting at 0, in first-touch
	// order. It lets replay-side structures (residency trackers, next-use
	// chains, reuse profilers, directories) index flat slices instead of
	// hashing the sparse 64-bit block number on every access. Assigned by
	// AssignBlockIDs (AnnotateNextUse calls it); see EnsureBlockIDs for the
	// convention consumers rely on.
	BlockID uint32

	Core  uint8 // issuing core
	Write bool  // store vs. load
}

// NoNextUse marks a block with no future reference in the stream.
const NoNextUse int32 = -1

// MaxStreamLen is the most records one LLC reference stream may hold:
// Index and NextUse are int32 stream positions, and so are the orders of
// a sharing.PartitionIndex. Code that builds or decodes a stream fails
// with an error instead of wrapping a position past it.
const MaxStreamLen = math.MaxInt32

// errStreamTooLong is the error for a stream of n > MaxStreamLen records.
func errStreamTooLong(n uint64) error {
	return fmt.Errorf("cache: stream of %d records exceeds the %d-record limit", n, uint64(MaxStreamLen))
}

// Policy is the replacement-policy contract for the LLC. A Policy manages
// per-set ordering state; the cache owns validity and, through its entry
// point, which block each line holds (see SetAssoc).
//
// The cache calls exactly one of Hit or (Victim, Fill) per access: Hit when
// the block is present, otherwise Victim to choose the way to evict from a
// full set (the cache fills invalid ways itself without consulting the
// policy) followed by Fill for the chosen way.
//
// AccessInfo is passed by pointer purely to keep the per-access cost of
// these non-inlinable calls down; the record is read-only and must not
// be retained or mutated past the call.
type Policy interface {
	// Name identifies the policy in reports, e.g. "lru" or "srrip".
	Name() string
	// Attach tells the policy the geometry of the cache it will manage.
	// It is called once before any other method.
	Attach(sets, ways int)
	// Hit records a hit on way in set.
	Hit(set, way int, a *AccessInfo)
	// Victim selects the way to evict from a full set.
	Victim(set int, a *AccessInfo) int
	// Fill records that way in set was filled by a.
	Fill(set, way int, a *AccessInfo)
}

// Releaser is the optional capability of a policy whose state arrays
// come from the mem pool: Release hands them back once the policy's
// cache is done with them (SetAssoc.Release). A released policy's state
// slices are nil, so a late Hit, Victim or Fill panics instead of
// reading another lane's state; counters it reports (such as
// core.Protector's Stats) stay readable. A wrapper forwards Release to
// its base.
type Releaser interface {
	Release()
}

// line packs one way's bookkeeping — block number and validity — into a
// single word, so a whole 16-way set scans out of two cache lines instead
// of the four a padded struct would occupy. Block numbers are byte
// addresses >> trace.BlockShift and therefore never reach the flag bit.
type line uint64

const lineValid line = 1 << 63

func (ln line) valid() bool   { return ln&lineValid != 0 }
func (ln line) block() uint64 { return uint64(ln &^ lineValid) }

// tagOf is the valid line holding block: what a fill stores, and what a
// lookup compares against to test validity and tag in one compare.
func tagOf(block uint64) line { return line(block) | lineValid }

// SetAssoc is a set-associative cache with a pluggable replacement policy:
// the shared LLC. No LLC line is ever invalidated, so a set fills its
// ways in order and a filling set's free way is way valid[set]. A cache
// serves one entry point: Access keeps a tag array, allocated on its
// first call; ReplayBatchCols keeps none, as the caller's residency
// tables (active, lineID) name every line's block.
type SetAssoc struct {
	sets    int
	ways    int
	mask    uint64
	lines   []line   // Access's tag array: sets*ways, row-major by set; nil until the first Access
	valid   []uint16 // per-set count of valid lines; == ways means full
	batched bool     // a batch replay has run; Access refuses the cache
	policy  Policy
	kernel  BatchKernel // monomorphic batch probe, nil = generic loop
}

// Geometry validates a (size, ways) pair and returns the set count
// NewSetAssoc would produce, letting callers reason about sets (e.g. to
// pick a shard count) without building a cache.
func Geometry(sizeBytes, ways int) (sets int, err error) {
	if sizeBytes <= 0 || ways <= 0 {
		return 0, fmt.Errorf("cache: non-positive geometry (size %d, ways %d)", sizeBytes, ways)
	}
	blocks := sizeBytes / trace.BlockSize
	if blocks*trace.BlockSize != sizeBytes {
		return 0, fmt.Errorf("cache: size %d is not a multiple of the block size %d", sizeBytes, trace.BlockSize)
	}
	sets = blocks / ways
	if sets == 0 || sets*ways != blocks {
		return 0, fmt.Errorf("cache: size %d with %d ways leaves a fractional set count", sizeBytes, ways)
	}
	if sets&(sets-1) != 0 {
		return 0, fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return sets, nil
}

// NewSetAssoc builds an empty cache of sizeBytes capacity and the given
// associativity, managed by policy. sizeBytes must be a multiple of
// ways*trace.BlockSize and the resulting set count must be a power of two.
// It holds only the per-set valid counts, from the mem pool.
func NewSetAssoc(sizeBytes, ways int, policy Policy) (*SetAssoc, error) {
	sets, err := Geometry(sizeBytes, ways)
	if err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("cache: nil policy")
	}
	policy.Attach(sets, ways)
	c := &SetAssoc{
		sets:   sets,
		ways:   ways,
		mask:   uint64(sets - 1),
		valid:  mem.Grab[uint16](sets),
		policy: policy,
	}
	c.bindBatchKernel()
	return c, nil
}

// Release hands the valid counts and, when the policy is a Releaser,
// its state back to the mem pool. The cache is unusable afterwards:
// Access and ReplayBatchCols panic on it.
func (c *SetAssoc) Release() {
	mem.Release(c.valid)
	c.valid, c.kernel = nil, nil
	if r, ok := c.policy.(Releaser); ok {
		r.Release()
	}
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// setOf returns the set index for a block number.
func (c *SetAssoc) setOf(block uint64) int { return int(block & c.mask) }

// Result reports the outcome of one Access.
type Result struct {
	Hit     bool
	Set     int
	Way     int
	Evicted bool   // an existing valid line was displaced
	Victim  uint64 // block number of the displaced line, valid if Evicted
}

// Access presents one reference to the cache: on a miss the block is
// filled (allocate-on-write as well as read), evicting a victim if the set
// is full. It panics on a cache that has run ReplayBatchCols.
func (c *SetAssoc) Access(a AccessInfo) Result {
	if c.lines == nil {
		if c.batched {
			panic("cache: Access on a cache that has run a batch replay")
		}
		c.lines = make([]line, c.sets*c.ways)
	}
	set := c.setOf(a.Block)
	base := set * c.ways
	// One pass over the set finds both the hit way and the first invalid
	// way (the fill target should the lookup miss).
	way := -1
	want := tagOf(a.Block)
	for w := 0; w < c.ways; w++ {
		ln := c.lines[base+w]
		if !ln.valid() {
			if way < 0 {
				way = w
			}
			continue
		}
		if ln == want {
			c.policy.Hit(set, w, &a)
			return Result{Hit: true, Set: set, Way: w}
		}
	}
	res := Result{Set: set}
	if way < 0 {
		way = c.victim(set, base, &res, &a)
	} else {
		c.valid[set]++
	}
	c.lines[base+way] = want
	c.policy.Fill(set, way, &a)
	res.Way = way
	return res
}

// victim runs the eviction half of a fill on a full set: policy choice
// and victim bookkeeping into res.
func (c *SetAssoc) victim(set, base int, res *Result, a *AccessInfo) int {
	way := c.policy.Victim(set, a)
	if way < 0 || way >= c.ways {
		panic(badVictim(c.policy, way, c.ways))
	}
	res.Evicted = true
	res.Victim = c.lines[base+way].block()
	return way
}

// badVictim is the policy-contract panic message shared by the scalar
// (victim) and batched (fillSlot) eviction paths.
func badVictim(p Policy, way, ways int) string {
	return fmt.Sprintf("cache: policy %s returned victim way %d outside [0,%d)", p.Name(), way, ways)
}

// PerSetIndependent reports whether p declares that its replacement
// decisions in one set depend only on the sequence of accesses to that set
// (no cross-set state such as dueling counters, shared RNG draws or global
// prediction tables). A per-set-independent policy replayed with the
// stream split by set index gives results identical to a stream-order
// replay.
func PerSetIndependent(p Policy) bool {
	ps, ok := p.(interface{ PerSetIndependent() bool })
	return ok && ps.PerSetIndependent()
}

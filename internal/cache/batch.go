package cache

// Batched replay entry point.
//
// Access is a per-access call: every access pays the call
// itself, a Result struct moving through registers, and the branchy
// interleaving of tag, validity and policy work. The lane engine of
// internal/sharing instead presents accesses in chunks and consumes one
// packed outcome word per access, so the probe runs as a single tight
// loop whose only unavoidable per-access calls are the policy's own
// Hit/Victim/Fill notifications — and none at all when the policy binds
// a monomorphic BatchKernel. ReplayBatchCols walks pre-decoded block and
// BlockID columns (the engine decodes them once per stream and reuses
// them across every lane),
// touching the full record only where the policy contract requires the
// pointer.
//
// The batch path keeps no tag array: the caller's residency tables are
// the cache's contents. active maps BlockID → 1+line index for every
// resident block, so it finds hits; lineID is the reverse map, so it
// names the victim whose entry an eviction clears; and both must
// describe exactly this cache's contents. The per-set valid counts are
// the only cache-side state a fill reads: ways fill in order, so the
// free way of a filling set is way valid[set].

// Batch outcome word layout: bits 0–29 carry the line index
// (set*ways+way), BatchHit marks a hit, BatchEvict marks a fill that
// displaced a valid line. A fill into an invalid way sets neither flag.
const (
	BatchLine  uint32 = 1<<30 - 1
	BatchHit   uint32 = 1 << 30
	BatchEvict uint32 = 1 << 31
)

// BatchKernel is a monomorphic specialization of the ReplayBatchCols
// chunk loop for one concrete (cache, policy) pair: a single call probes
// a whole chunk of pre-decoded columns with the policy's Hit/Victim/Fill
// logic inlined into the loop body instead of dispatched through the
// Policy interface per access. A kernel must perform exactly the state
// transitions of the generic loop — same outcome words, same
// residency-table and policy-state updates in the same order — so
// kernel and generic replays stay bit-identical (the
// TestBatchPolicyVsGeneric differentials hold every kernel to it).
// accs runs in lockstep with the columns; most kernels never touch it
// (their policies ignore the AccessInfo), the exceptions being SHiP's
// fill PC and SHiP-S's hit core.
type BatchKernel func(blk []uint64, id []uint32, accs []AccessInfo, active, lineID, out []uint32)

// batchPolicy is the optional capability interface of the batch replay
// path. A policy that implements it supplies a BatchKernel bound to the
// cache at construction time: NewSetAssoc performs the type assertion
// once, so the per-access interface dispatch the generic loop pays
// (three non-inlinable dynamic calls in the hottest loop of the repo)
// disappears for the lanes that dominate sweep time. Policies decline by
// returning nil (e.g. for a geometry their specialized victim search
// does not support), falling back to the generic loop.
//
// NewBatchKernel is called after Attach, so the returned closure may
// capture the policy's state slices directly. Wrappers that delegate to
// a base policy (core.Protector) must NOT forward the base's kernel: it
// would bypass the wrapper's overrides. Holding the base as an interface
// field (not embedding) gives that for free. A wrapper may instead bind
// a kernel of its own for a base it knows, performing its overrides
// inline, as core.Lane does over LRU.
type batchPolicy interface {
	Policy
	NewBatchKernel(c *SetAssoc) BatchKernel
}

// HasBatchKernel reports whether this cache's batch replay runs a
// monomorphic kernel (true) or the generic interface loop (false).
func (c *SetAssoc) HasBatchKernel() bool { return c.kernel != nil }

// bindBatchKernel performs the one-time specialization type switch of
// lane setup: called from NewSetAssoc after Attach.
func (c *SetAssoc) bindBatchKernel() {
	if bp, ok := c.policy.(batchPolicy); ok {
		c.kernel = bp.NewBatchKernel(c)
	}
}

// Kernel-support surface: the few pieces of SetAssoc state a
// monomorphic kernel maintains in place of the generic loop. These are
// exported only for BatchKernel implementations (internal/policy); all
// other callers go through the Access/Replay entry points.

// KernelGeom returns the geometry constants a kernel bakes into its
// chunk loop: the set-index mask and the associativity.
func (c *SetAssoc) KernelGeom() (mask uint64, ways int) { return c.mask, c.ways }

// KernelValid exposes the per-set valid-way counts; a count equal to
// Ways() means the set is full and a fill must evict.
func (c *SetAssoc) KernelValid() []uint16 { return c.valid }

// KernelColdWay is the cold half of fillSlot for kernels: the line index
// of the first invalid way of a non-full set — way valid[set], since
// ways fill in order — counting the new line into the set's valid count.
// Kernels inline only the full-set victim search (the steady state); the
// filling phase takes this call.
func (c *SetAssoc) KernelColdWay(set int) uint32 {
	w := c.valid[set]
	c.valid[set] = w + 1
	return uint32(set*c.ways + int(w))
}

// ReplayBatchCols presents a chunk of accesses to the cache in one tight
// loop, writing one outcome word per access into out and maintaining
// the caller's active/lineID residency tables. blk and id carry each
// access's block number and dense BlockID; the record in accs is
// touched only by the policy calls (many policies never dereference it)
// and on fills, so a lane walk streams a few bytes per access instead
// of the full record. blk, id, accs and out run in lockstep. A cache
// whose policy bound a BatchKernel runs that instead of the generic
// interface loop below. It panics on a cache that Access has served.
func (c *SetAssoc) ReplayBatchCols(blk []uint64, id []uint32, accs []AccessInfo, active, lineID, out []uint32) {
	if c.lines != nil {
		panic("cache: batch replay on a cache that Access has served")
	}
	c.batched = true
	if c.kernel != nil {
		c.kernel(blk, id, accs, active, lineID, out)
		return
	}
	pol := c.policy
	ways := c.ways
	mask := c.mask
	for k := range blk {
		if li := active[id[k]]; li != 0 {
			set := int(blk[k] & mask)
			pol.Hit(set, int(li-1)-set*ways, &accs[k])
			out[k] = (li - 1) | BatchHit
			continue
		}
		set := int(blk[k] & mask)
		a := &accs[k]
		li, o := c.fillSlot(set, a)
		if o != 0 {
			active[lineID[li]] = 0
		}
		pol.Fill(set, int(li)-set*ways, a)
		lineID[li] = id[k]
		active[id[k]] = li + 1
		out[k] = li | o
	}
}

// fillSlot picks the line index a fill of set should land in — the
// first invalid way while the set is filling, the policy's victim once
// it is full — returning BatchEvict in o when a valid line is
// displaced. It is the batched twin of Access's slot choice and panics
// on the same policy contract violations.
func (c *SetAssoc) fillSlot(set int, a *AccessInfo) (li, o uint32) {
	if int(c.valid[set]) < c.ways {
		return c.KernelColdWay(set), 0
	}
	way := c.policy.Victim(set, a)
	if way < 0 || way >= c.ways {
		panic(badVictim(c.policy, way, c.ways))
	}
	return uint32(set*c.ways + way), BatchEvict
}

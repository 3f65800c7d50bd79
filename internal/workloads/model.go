// Package workloads synthesizes multi-threaded memory traces that stand in
// for the PARSEC, SPLASH-2 and SPEC OMP applications the paper
// characterizes (the real binaries, inputs and a Pin-style tracer are not
// available offline; see DESIGN.md, substitution table).
//
// Each named Model describes one application as a small set of address
// regions and an access mix:
//
//   - a per-thread private region (stack/heap partitions),
//   - a shared read-only region (input data, lookup structures),
//   - a shared read-write region (graphs, queues, grids) accessed through a
//     rotating per-phase hot window by clusters of threads — this is what
//     produces genuinely shared LLC residencies and, because the window
//     moves, the phase behaviour that defeats history-based predictors,
//   - a small lock region (hot synchronization blocks touched by all).
//
// Reuse within a region mixes Zipf-skewed random touches with sequential
// runs, matching the two dominant locality modes of the suites. All
// randomness derives from a caller-provided seed, so every trace is
// bit-reproducible.
package workloads

import (
	"fmt"
	"math"

	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// Region bases keep the four region kinds in disjoint parts of the block
// address space; the low bits carry the in-region block number.
const (
	privateBase  = uint64(1) << 40
	sharedROBase = uint64(2) << 40
	sharedRWBase = uint64(3) << 40
	lockBase     = uint64(4) << 40

	// privateStride separates per-thread private regions.
	privateStride = uint64(1) << 32

	// pcRegionStride separates the PC pools of the four region kinds.
	pcRegionStride = uint64(1) << 20
	pcBase         = uint64(0x400000)
)

// Model is a parameterized synthetic application.
type Model struct {
	Name        string
	Suite       string // "parsec", "splash2" or "specomp"
	Description string

	Threads           int
	AccessesPerThread int

	// Region sizes in 64-byte blocks.
	PrivateBlocks  int // per thread
	SharedROBlocks int
	SharedRWBlocks int
	LockBlocks     int

	// Access mix: probability of touching each shared region kind; the
	// remainder goes to the thread's private region.
	FracSharedRO float64
	FracSharedRW float64
	FracLock     float64

	// Locality shape.
	PrivateZipf  float64 // Zipf exponent for private reuse (0 = uniform)
	SharedROZipf float64 // Zipf exponent for shared read-only reuse
	SeqRunLen    int     // mean sequential-run length (1 = pure random)

	// Write behaviour. The shared read-only region never sees writes;
	// the lock region is half writes by construction.
	WriteFrac float64

	// Phase structure: hot windows rotate at each of Phases boundaries.
	Phases int
	// RWWindowFrac is the fraction of the shared read-write region that
	// is hot in any one phase.
	RWWindowFrac float64
	// RWSharingDegree clusters threads: each cluster of this many
	// threads works on its own window of the shared read-write region,
	// bounding the sharing degree of its residencies.
	RWSharingDegree int
	// RWSweep switches the shared read-write region from the rotating
	// hot window to a loose-lockstep cyclic sweep: all threads of a
	// cluster walk the region together (with a little jitter), so each
	// block receives a clustered burst of cross-core touches once per
	// revolution and then goes quiet until the sweep returns. The
	// revisit distance is the region size — choosing it near the LLC
	// capacity reproduces the marginal shared working sets for which
	// sharing-aware protection pays (iterative solvers, transposes,
	// streaming pipelines).
	RWSweep bool

	// Burst is the mean scheduling burst for the global interleaving.
	Burst int
	// PCsPerRegion is the number of distinct static instructions the
	// model uses per region kind; smaller pools give the PC-indexed
	// predictor more signal.
	PCsPerRegion int
}

// validate reports whether the model is internally consistent.
func (m Model) validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("workloads: unnamed model")
	case m.Threads < 1 || m.Threads > 128:
		return fmt.Errorf("workloads: %s: Threads %d outside [1,128]", m.Name, m.Threads)
	case m.AccessesPerThread < 1:
		return fmt.Errorf("workloads: %s: AccessesPerThread %d < 1", m.Name, m.AccessesPerThread)
	case m.PrivateBlocks < 1:
		return fmt.Errorf("workloads: %s: PrivateBlocks %d < 1", m.Name, m.PrivateBlocks)
	case uint64(m.PrivateBlocks) > privateStride:
		return fmt.Errorf("workloads: %s: PrivateBlocks %d exceeds per-thread stride", m.Name, m.PrivateBlocks)
	case m.FracSharedRO < 0 || m.FracSharedRW < 0 || m.FracLock < 0:
		return fmt.Errorf("workloads: %s: negative access fraction", m.Name)
	case m.FracSharedRO+m.FracSharedRW+m.FracLock > 1:
		return fmt.Errorf("workloads: %s: shared fractions sum to %v > 1", m.Name,
			m.FracSharedRO+m.FracSharedRW+m.FracLock)
	case m.FracSharedRO > 0 && m.SharedROBlocks < 1:
		return fmt.Errorf("workloads: %s: shared-RO accesses but empty region", m.Name)
	case m.FracSharedRW > 0 && m.SharedRWBlocks < 1:
		return fmt.Errorf("workloads: %s: shared-RW accesses but empty region", m.Name)
	case m.FracLock > 0 && m.LockBlocks < 1:
		return fmt.Errorf("workloads: %s: lock accesses but empty region", m.Name)
	case m.WriteFrac < 0 || m.WriteFrac > 1:
		return fmt.Errorf("workloads: %s: WriteFrac %v outside [0,1]", m.Name, m.WriteFrac)
	case m.Phases < 1:
		return fmt.Errorf("workloads: %s: Phases %d < 1", m.Name, m.Phases)
	case m.FracSharedRW > 0 && (m.RWWindowFrac <= 0 || m.RWWindowFrac > 1):
		return fmt.Errorf("workloads: %s: RWWindowFrac %v outside (0,1]", m.Name, m.RWWindowFrac)
	case m.FracSharedRW > 0 && m.RWSharingDegree < 1:
		return fmt.Errorf("workloads: %s: RWSharingDegree %d < 1", m.Name, m.RWSharingDegree)
	case m.SeqRunLen < 1:
		return fmt.Errorf("workloads: %s: SeqRunLen %d < 1", m.Name, m.SeqRunLen)
	case m.Burst < 1:
		return fmt.Errorf("workloads: %s: Burst %d < 1", m.Name, m.Burst)
	case m.PCsPerRegion < 1:
		return fmt.Errorf("workloads: %s: PCsPerRegion %d < 1", m.Name, m.PCsPerRegion)
	case uint64(m.FootprintBlocks()) > math.MaxUint32:
		return fmt.Errorf("workloads: %s: footprint of %d blocks exceeds the uint32 block index", m.Name, m.FootprintBlocks())
	}
	return nil
}

// TotalAccesses returns the trace length the model generates.
func (m Model) TotalAccesses() int { return m.Threads * m.AccessesPerThread }

// FootprintBlocks estimates the total distinct blocks the model can touch.
func (m Model) FootprintBlocks() int {
	return m.Threads*m.PrivateBlocks + m.SharedROBlocks + m.SharedRWBlocks + m.LockBlocks
}

// BlockIndex numbers a block of Generate's trace densely in
// [0, FootprintBlocks()): the private regions thread by thread, then the
// shared read-only, shared read-write and lock regions, each region's
// blocks in order. It inverts Generate's region layout only; a Mix moves
// its programs' addresses and is outside it. It runs once per reference,
// so it takes a pointer rather than copying the Model, and it takes no
// branch on the region, which a trace's references draw at random: the
// region's base is picked by conditional moves, and the thread term
// vanishes outside the private regions.
func (m *Model) BlockIndex(block uint64) uint32 {
	ro := uint32(m.Threads * m.PrivateBlocks) // the shared regions' bases
	rw := ro + uint32(m.SharedROBlocks)
	lock := rw + uint32(m.SharedRWBlocks)
	var base uint32
	if block >= sharedROBase {
		base = ro
	}
	if block >= sharedRWBase {
		base = rw
	}
	if block >= lockBase {
		base = lock
	}
	// A private block is privateBase + tid*privateStride + its in-region
	// number; a shared one has zeros between bit 32 and its region bits.
	tid := uint32(block/privateStride) & uint32(privateBase/privateStride-1)
	return base + tid*uint32(m.PrivateBlocks) + uint32(block)
}

// Scaled returns a copy with region sizes and trace length multiplied by
// f (minimum 1 block / 1 access). Experiments use it to shrink the suite
// proportionally when targeting smaller LLCs.
func (m Model) Scaled(f float64) Model {
	scale := func(v int) int {
		s := int(float64(v) * f)
		if s < 1 {
			s = 1
		}
		return s
	}
	m.AccessesPerThread = scale(m.AccessesPerThread)
	m.PrivateBlocks = scale(m.PrivateBlocks)
	if m.SharedROBlocks > 0 {
		m.SharedROBlocks = scale(m.SharedROBlocks)
	}
	if m.SharedRWBlocks > 0 {
		m.SharedRWBlocks = scale(m.SharedRWBlocks)
	}
	return m
}

// Generate returns the model's global interleaved trace for the given
// seed. The reader produces exactly TotalAccesses accesses.
func (m Model) Generate(seed uint64) (trace.Reader, error) {
	return m.generate(seed, 0, 0)
}

// generate is Generate with thread t issuing as core core0+t and every
// address moved up by offset (Mix places its programs this way).
func (m Model) generate(seed uint64, core0 uint8, offset trace.Addr) (trace.Reader, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	master := rng.New(seed ^ hashName(m.Name))
	streams := make([]trace.Reader, m.Threads)
	var first *threadGen // thread 0 builds the Zipf tables the others share
	for t := 0; t < m.Threads; t++ {
		g, err := newThreadGen(m, uint8(t), master.Split(), first)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = g
		}
		g.core, g.offset = g.core+core0, offset
		streams[t] = g
	}
	return trace.NewInterleaver(streams, m.Burst, master.Split()), nil
}

// hashName folds the model name into the seed so equal seeds still give
// different (but reproducible) streams per model.
func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// regionKind indexes the four region kinds.
type regionKind int

const (
	regPrivate regionKind = iota
	regSharedRO
	regSharedRW
	regLock
)

// threadGen produces one thread's access stream.
type threadGen struct {
	m      Model
	tid    uint8      // thread number: selects private region and cluster
	core   uint8      // issuing core stamped on every access
	offset trace.Addr // added to every address
	rnd    *rng.Source
	issued int

	privZipf *rng.Zipf
	roZipf   *rng.Zipf

	// Sequential-run state per region.
	cursor  [4]uint64 // last in-region block per region kind
	running [4]int    // remaining accesses of the current sequential run

	pSeqStart float64

	// Phase state, set at each phase boundary so that no reference
	// divides: the issued count at which the next phase begins, and the
	// current phase's rotation of each region.
	nextPhase int
	privOff   uint64 // private hot-set rotation
	roOff     uint64 // shared read-only hot-set rotation
	rwStart   uint64 // start of the cluster's shared read-write window

	// Shared read-write constants (zero when the model never touches
	// the region): the hot window's length, and the cluster's sweep
	// range with the thread's position in it.
	rwWindow  uint64
	sweepBase uint64
	sweepSpan uint64
	sweepPos  uint64 // revolution position, in [0, sweepSpan)
}

// sweepJitter bounds the per-access jitter of the shared read-write sweep.
const sweepJitter = 16

// newThreadGen builds thread tid's generator. Every thread draws its two
// Zipf sources from rnd in the same order; the tables behind them depend
// only on the model, so threads after the first reuse first's.
func newThreadGen(m Model, tid uint8, rnd *rng.Source, first *threadGen) (*threadGen, error) {
	g := &threadGen{m: m, tid: tid, core: tid, rnd: rnd}
	var err error
	if first != nil {
		g.privZipf = first.privZipf.WithSource(rnd.Split())
	} else if g.privZipf, err = rng.NewZipf(rnd.Split(), m.PrivateZipf, m.PrivateBlocks); err != nil {
		return nil, err
	}
	if m.SharedROBlocks > 0 {
		if first != nil {
			g.roZipf = first.roZipf.WithSource(rnd.Split())
		} else if g.roZipf, err = rng.NewZipf(rnd.Split(), m.SharedROZipf, m.SharedROBlocks); err != nil {
			return nil, err
		}
	}
	if m.SeqRunLen > 1 {
		g.pSeqStart = 1.0 / float64(m.SeqRunLen)
	}
	if m.FracSharedRW > 0 {
		size := uint64(m.SharedRWBlocks)
		g.rwWindow = max(uint64(float64(size)*m.RWWindowFrac), 1)
		// Each cluster of RWSharingDegree threads sweeps its own share of
		// the region; with more clusters than blocks the share is one
		// block and clusters wrap onto each other.
		clusters := uint64((m.Threads + m.RWSharingDegree - 1) / m.RWSharingDegree)
		g.sweepSpan = max(size/clusters, 1)
		g.sweepBase = g.cluster() * g.sweepSpan % size
	}
	g.setPhase()
	return g, nil
}

// cluster returns the thread's shared read-write cluster.
func (g *threadGen) cluster() uint64 { return uint64(int(g.tid) / g.m.RWSharingDegree) }

// setPhase enters the phase the issued count falls in (the last phase
// once the count passes the end) and precomputes what that phase fixes:
// the region rotations and the count at which the next phase begins,
// ⌈(p+1)·AccessesPerThread/Phases⌉. More phases than accesses skip
// phases, hence the division here rather than a plain increment.
func (g *threadGen) setPhase() {
	m := &g.m
	p := min(g.issued*m.Phases/m.AccessesPerThread, m.Phases-1)
	g.nextPhase = ((p+1)*m.AccessesPerThread + m.Phases - 1) / m.Phases
	g.privOff = uint64(p) * uint64(m.PrivateBlocks) / uint64(m.Phases)
	g.roOff = uint64(p) * uint64(m.SharedROBlocks) / uint64(m.Phases)
	if g.rwWindow > 0 {
		// The window start advances each phase and is offset per cluster
		// so different clusters share different block ranges.
		g.rwStart = (uint64(p)*g.rwWindow + g.cluster()*g.rwWindow*7919) % uint64(m.SharedRWBlocks)
	}
}

// Next implements trace.Reader.
func (g *threadGen) Next() (trace.Access, bool) {
	if g.issued >= g.m.AccessesPerThread {
		return trace.Access{}, false
	}
	return g.gen(), true
}

// ReadBatch implements trace.batchReader.
func (g *threadGen) ReadBatch(dst []trace.Access) int {
	n := min(len(dst), g.m.AccessesPerThread-g.issued)
	for i := range dst[:n] {
		dst[i] = g.gen()
	}
	return n
}

// Err implements trace.Reader. A generator never fails.
func (g *threadGen) Err() error { return nil }

// gen produces the thread's next access; the caller checks the budget.
func (g *threadGen) gen() trace.Access {
	kind := g.pickRegion()
	blockNo, write := g.pickBlock(kind)
	pc := g.pickPC(kind)
	if g.issued++; g.issued == g.nextPhase {
		g.setPhase()
	}
	return trace.Access{
		Core:  g.core,
		Write: write,
		PC:    pc,
		Addr:  trace.Addr(blockNo<<trace.BlockShift) + g.offset,
	}
}

// pickRegion draws the region kind from the model's access mix.
func (g *threadGen) pickRegion() regionKind {
	u := g.rnd.Float64()
	if u < g.m.FracSharedRO {
		return regSharedRO
	}
	u -= g.m.FracSharedRO
	if u < g.m.FracSharedRW {
		return regSharedRW
	}
	u -= g.m.FracSharedRW
	if u < g.m.FracLock {
		return regLock
	}
	return regPrivate
}

// pickBlock chooses the block number and write flag for a region access.
// Private, shared read-only and windowed shared read-write accesses mix
// sequential runs with random jumps (runNext, then jumpTo).
func (g *threadGen) pickBlock(kind regionKind) (blockNo uint64, write bool) {
	switch kind {
	case regPrivate:
		inRegion, ok := g.runNext(kind, uint64(g.m.PrivateBlocks))
		if !ok {
			// Per-phase rotation drifts the hot set through the region.
			hot := uint64(g.privZipf.Next())
			inRegion = g.jumpTo(kind, wrap(hot+g.privOff, uint64(g.m.PrivateBlocks)))
		}
		write = g.rnd.Bool(g.m.WriteFrac)
		blockNo = privateBase + uint64(g.tid)*privateStride + inRegion

	case regSharedRO:
		inRegion, ok := g.runNext(kind, uint64(g.m.SharedROBlocks))
		if !ok {
			hot := uint64(g.roZipf.Next())
			inRegion = g.jumpTo(kind, wrap(hot+g.roOff, uint64(g.m.SharedROBlocks)))
		}
		blockNo = sharedROBase + inRegion

	case regSharedRW:
		var inRegion uint64
		if g.m.RWSweep {
			inRegion = g.rwSweepBlock()
		} else if b, ok := g.runNext(kind, uint64(g.m.SharedRWBlocks)); ok {
			inRegion = b
		} else {
			inRegion = g.jumpTo(kind, g.rwWindowBlock())
		}
		write = g.rnd.Bool(g.m.WriteFrac)
		blockNo = sharedRWBase + inRegion

	case regLock:
		inRegion := g.rnd.Uint64n(uint64(g.m.LockBlocks))
		write = g.rnd.Bool(0.5)
		blockNo = lockBase + inRegion
	}
	return blockNo, write
}

// wrap reduces v, a sum of two terms below size, into [0, size).
func wrap(v, size uint64) uint64 {
	if v >= size {
		v -= size
	}
	return v
}

// rwWindowBlock picks a block from the thread cluster's current hot window
// of the shared read-write region.
func (g *threadGen) rwWindowBlock() uint64 {
	return wrap(g.rwStart+g.rnd.Uint64n(g.rwWindow), uint64(g.m.SharedRWBlocks))
}

// rwSweepBlock advances the thread's sweep position through the cluster's
// share of the region. All threads of a cluster progress at the same
// per-thread rate, so their positions stay loosely aligned and each block
// receives a burst of cross-core touches once per revolution.
func (g *threadGen) rwSweepBlock() uint64 {
	// Small jitter keeps cluster mates from colliding on the exact same
	// block every time while preserving the burst clustering.
	pos, span := g.sweepPos+g.rnd.Uint64n(sweepJitter), g.sweepSpan
	if pos >= span {
		if span >= sweepJitter {
			pos -= span
		} else {
			pos %= span // the jitter alone can pass a short span
		}
	}
	if g.sweepPos++; g.sweepPos == span {
		g.sweepPos = 0
	}
	return g.sweepBase + pos
}

// runNext continues the region's sequential run: while one is active the
// cursor advances by one block, wrapping at size. It reports false when
// no run is active and the caller must jump.
func (g *threadGen) runNext(kind regionKind, size uint64) (uint64, bool) {
	if g.running[kind] <= 0 {
		return 0, false
	}
	g.running[kind]--
	c := g.cursor[kind] + 1
	if c == size {
		c = 0
	}
	g.cursor[kind] = c
	return c, true
}

// jumpTo moves the region's cursor to b, a freshly chosen block, and with
// the model's run-start probability begins a new sequential run there.
func (g *threadGen) jumpTo(kind regionKind, b uint64) uint64 {
	g.cursor[kind] = b
	if g.pSeqStart > 0 && g.rnd.Bool(g.pSeqStart) {
		// Run length uniform in [1, 2*SeqRunLen-1] → mean ≈ SeqRunLen.
		g.running[kind] = 1 + g.rnd.Intn(2*g.m.SeqRunLen-1)
	}
	return b
}

// pickPC draws the instruction address for an access: one of the model's
// per-region static PCs, shared by all threads (SPMD code).
func (g *threadGen) pickPC(kind regionKind) uint64 {
	k := g.rnd.Uint64n(uint64(g.m.PCsPerRegion))
	return pcBase + uint64(kind)*pcRegionStride + k*4
}

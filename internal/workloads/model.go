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

// Validate reports whether the model is internally consistent.
func (m Model) Validate() error {
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
	}
	return nil
}

// TotalAccesses returns the trace length the model generates.
func (m Model) TotalAccesses() int { return m.Threads * m.AccessesPerThread }

// FootprintBlocks estimates the total distinct blocks the model can touch.
func (m Model) FootprintBlocks() int {
	return m.Threads*m.PrivateBlocks + m.SharedROBlocks + m.SharedRWBlocks + m.LockBlocks
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
	if err := m.Validate(); err != nil {
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
	sweep   uint64    // RWSweep cursor (per-thread revolution position)

	pSeqStart float64
}

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
	return g, nil
}

// phase returns the thread's current phase in [0, Phases).
func (g *threadGen) phase() int {
	p := g.issued * g.m.Phases / g.m.AccessesPerThread
	if p >= g.m.Phases {
		p = g.m.Phases - 1
	}
	return p
}

// Next implements trace.Reader.
func (g *threadGen) Next() (trace.Access, bool) {
	if g.issued >= g.m.AccessesPerThread {
		return trace.Access{}, false
	}
	return g.gen(), true
}

// ReadBatch implements trace.BatchReader.
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
	g.issued++
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
func (g *threadGen) pickBlock(kind regionKind) (blockNo uint64, write bool) {
	var inRegion uint64
	var regionSize int
	switch kind {
	case regPrivate:
		regionSize = g.m.PrivateBlocks
		inRegion = g.seqOrJump(kind, regionSize, func() uint64 {
			// Per-phase rotation drifts the hot set through the region.
			hot := uint64(g.privZipf.Next())
			off := uint64(g.phase()) * uint64(regionSize) / uint64(g.m.Phases)
			return (hot + off) % uint64(regionSize)
		})
		write = g.rnd.Bool(g.m.WriteFrac)
		blockNo = privateBase + uint64(g.tid)*privateStride + inRegion

	case regSharedRO:
		regionSize = g.m.SharedROBlocks
		inRegion = g.seqOrJump(kind, regionSize, func() uint64 {
			hot := uint64(g.roZipf.Next())
			off := uint64(g.phase()) * uint64(regionSize) / uint64(g.m.Phases)
			return (hot + off) % uint64(regionSize)
		})
		write = false
		blockNo = sharedROBase + inRegion

	case regSharedRW:
		regionSize = g.m.SharedRWBlocks
		if g.m.RWSweep {
			inRegion = g.rwSweepBlock()
		} else {
			inRegion = g.seqOrJump(kind, regionSize, func() uint64 {
				return g.rwWindowBlock()
			})
		}
		write = g.rnd.Bool(g.m.WriteFrac)
		blockNo = sharedRWBase + inRegion

	case regLock:
		inRegion = g.rnd.Uint64n(uint64(g.m.LockBlocks))
		write = g.rnd.Bool(0.5)
		blockNo = lockBase + inRegion
	}
	return blockNo, write
}

// rwWindowBlock picks a block from the thread cluster's current hot window
// of the shared read-write region.
func (g *threadGen) rwWindowBlock() uint64 {
	size := uint64(g.m.SharedRWBlocks)
	window := uint64(float64(size) * g.m.RWWindowFrac)
	if window < 1 {
		window = 1
	}
	cluster := uint64(int(g.tid) / g.m.RWSharingDegree)
	// The window start advances each phase and is offset per cluster so
	// different clusters share different block ranges.
	start := (uint64(g.phase())*window + cluster*window*7919) % size
	return (start + g.rnd.Uint64n(window)) % size
}

// rwSweepBlock advances the thread's sweep cursor through the cluster's
// share of the region. All threads of a cluster progress at the same
// per-thread rate, so their cursors stay loosely aligned and each block
// receives a burst of cross-core touches once per revolution.
func (g *threadGen) rwSweepBlock() uint64 {
	size := uint64(g.m.SharedRWBlocks)
	clusters := uint64((g.m.Threads + g.m.RWSharingDegree - 1) / g.m.RWSharingDegree)
	span := size / clusters
	if span < 1 {
		span = 1
	}
	cluster := uint64(int(g.tid) / g.m.RWSharingDegree)
	// Small jitter keeps cluster mates from colliding on the exact same
	// block every time while preserving the burst clustering.
	jitter := g.rnd.Uint64n(16)
	pos := (g.sweep + jitter) % span
	g.sweep++
	return (cluster*span + pos) % size
}

// seqOrJump implements the sequential-run/random-jump mix: while a run is
// active the cursor advances by one block; otherwise jump() chooses a new
// position and, with the model's run-start probability, begins a new run.
func (g *threadGen) seqOrJump(kind regionKind, regionSize int, jump func() uint64) uint64 {
	if g.running[kind] > 0 {
		g.running[kind]--
		g.cursor[kind] = (g.cursor[kind] + 1) % uint64(regionSize)
		return g.cursor[kind]
	}
	b := jump()
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

package workloads

import "fmt"

// defaultThreads matches the paper's 8-core CMP: one worker per core.
const defaultThreads = 8

// defaultAccesses is the per-thread trace length of the full-size suite
// (8 threads × 250k = 2M references per application).
const defaultAccesses = 250_000

// base returns the common skeleton every model starts from. The private
// locality default is deliberately bimodal (Zipf 1.35): the hot head fits
// in the private L2 and never reaches the LLC, while the tail streams —
// matching how real applications look from the LLC's vantage point.
func base(name, suite, desc string) Model {
	return Model{
		Name:              name,
		Suite:             suite,
		Description:       desc,
		Threads:           defaultThreads,
		AccessesPerThread: defaultAccesses,
		PrivateBlocks:     12_000,
		PrivateZipf:       1.35,
		SharedROZipf:      0.8,
		SeqRunLen:         8,
		WriteFrac:         0.3,
		Phases:            4,
		RWWindowFrac:      0.25,
		RWSharingDegree:   defaultThreads,
		Burst:             48,
		PCsPerRegion:      24,
		LockBlocks:        32,
	}
}

// Suite returns the full synthetic application suite.
//
// Parameters encode each application's published sharing profile —
// working-set sizes, the balance of private vs. shared-read-only vs.
// shared-read-write traffic, write intensity and the number of threads
// that touch the same shared data concurrently. The shared read-write
// working sets are deliberately spread across the 4 MB / 8 MB capacity
// boundary: some fit a 4 MB LLC once sharing-aware protection reclaims
// capacity from streaming fills (big oracle gains at 4 MB), some fit only
// at 8 MB (gains appear there), and some fit nowhere (the oracle has
// nothing to offer) — the spread that produces the paper's "6 % at 4 MB,
// 10 % at 8 MB" average headroom profile.
func Suite() []Model {
	var s []Model
	add := func(m Model) { s = append(s, m) }

	// ---------------------------------------------------------------- PARSEC
	m := base("blackscholes", "parsec", "data-parallel option pricing; almost no sharing")
	m.PrivateBlocks = 8_000
	m.SharedROBlocks = 2_000
	m.FracSharedRO = 0.05
	m.FracLock = 0.005
	m.WriteFrac = 0.25
	add(m)

	m = base("bodytrack", "parsec", "computer vision; shared read-mostly model data")
	m.PrivateBlocks = 6_000
	m.SharedROBlocks = 30_000
	m.FracSharedRO = 0.20
	m.SharedRWBlocks = 120_000
	m.FracSharedRW = 0.20
	m.RWSweep = true
	m.RWSharingDegree = 2
	m.FracLock = 0.01
	add(m)

	m = base("canneal", "parsec", "simulated annealing over a large shared netlist graph")
	m.PrivateBlocks = 8_000
	m.SharedRWBlocks = 130_000
	m.FracSharedRW = 0.50
	m.RWSweep = true
	m.RWSharingDegree = 2
	m.WriteFrac = 0.15
	m.SeqRunLen = 2
	add(m)

	m = base("dedup", "parsec", "pipelined compression; shared hash table, write-heavy")
	m.PrivateBlocks = 8_000
	m.SharedROBlocks = 8_000
	m.FracSharedRO = 0.10
	m.SharedRWBlocks = 50_000
	m.FracSharedRW = 0.35
	m.WriteFrac = 0.45
	m.RWSweep = true
	m.RWSharingDegree = 4
	m.FracLock = 0.02
	m.SeqRunLen = 4
	add(m)

	m = base("facesim", "parsec", "physics simulation; big private partitions, boundary sharing")
	m.PrivateBlocks = 20_000
	m.SharedRWBlocks = 100_000
	m.FracSharedRW = 0.16
	m.RWSweep = true
	m.RWSharingDegree = 2
	m.SeqRunLen = 24
	add(m)

	m = base("ferret", "parsec", "similarity search pipeline; large read-only database, queues")
	m.PrivateBlocks = 6_000
	m.SharedROBlocks = 100_000
	m.FracSharedRO = 0.40
	m.SharedROZipf = 0.9
	m.SharedRWBlocks = 2_000
	m.FracSharedRW = 0.08
	m.RWSharingDegree = 2
	m.WriteFrac = 0.5
	m.FracLock = 0.02
	add(m)

	m = base("fluidanimate", "parsec", "particle simulation; neighbour-cell sharing")
	m.PrivateBlocks = 8_000
	m.SharedRWBlocks = 40_000
	m.FracSharedRW = 0.30
	m.RWSweep = true
	m.RWSharingDegree = 2
	m.FracLock = 0.015
	add(m)

	m = base("freqmine", "parsec", "frequent itemset mining; shared FP-tree, read-mostly")
	m.PrivateBlocks = 8_000
	m.SharedROBlocks = 70_000
	m.FracSharedRO = 0.45
	m.SharedROZipf = 1.1
	m.SeqRunLen = 3
	add(m)

	m = base("streamcluster", "parsec", "online clustering; shared points, hot shared centers")
	m.PrivateBlocks = 4_000
	m.SharedROBlocks = 90_000
	m.FracSharedRO = 0.55
	m.SharedROZipf = 0.7
	m.SharedRWBlocks = 512
	m.FracSharedRW = 0.10
	m.RWSharingDegree = 8
	m.RWWindowFrac = 1.0
	m.WriteFrac = 0.4
	m.Phases = 8
	add(m)

	m = base("swaptions", "parsec", "Monte-Carlo pricing; embarrassingly parallel, private")
	m.PrivateBlocks = 12_000
	m.PrivateZipf = 0.9
	m.SharedROBlocks = 1_000
	m.FracSharedRO = 0.02
	add(m)

	m = base("vips", "parsec", "image pipeline; stage-to-stage buffer handoff")
	m.PrivateBlocks = 8_000
	m.SharedROBlocks = 10_000
	m.FracSharedRO = 0.10
	m.SharedRWBlocks = 130_000
	m.FracSharedRW = 0.30
	m.RWSweep = true
	m.RWSharingDegree = 2
	m.SeqRunLen = 16
	m.WriteFrac = 0.4
	add(m)

	m = base("x264", "parsec", "video encoder; producer-consumer reference frames")
	m.PrivateBlocks = 8_000
	m.SharedROBlocks = 10_000
	m.FracSharedRO = 0.10
	m.SharedRWBlocks = 120_000
	m.FracSharedRW = 0.40
	m.RWSweep = true
	m.RWSharingDegree = 2
	m.WriteFrac = 0.35
	m.SeqRunLen = 8
	add(m)

	// -------------------------------------------------------------- SPLASH-2
	m = base("barnes", "splash2", "N-body; heavily shared octree, high sharing degree")
	m.PrivateBlocks = 6_000
	m.SharedRWBlocks = 45_000
	m.FracSharedRW = 0.45
	m.RWSweep = true
	m.RWSharingDegree = 8
	m.WriteFrac = 0.25
	m.FracLock = 0.02
	m.SeqRunLen = 2
	add(m)

	m = base("fft", "splash2", "all-to-all transpose phases over a shared matrix")
	m.PrivateBlocks = 8_000
	m.SharedRWBlocks = 110_000
	m.FracSharedRW = 0.50
	m.RWSweep = true
	m.RWSharingDegree = 4
	m.WriteFrac = 0.5
	m.SeqRunLen = 16
	add(m)

	m = base("lu", "splash2", "blocked dense factorization; pivot row/column sharing")
	m.PrivateBlocks = 8_000
	m.SharedROBlocks = 30_000
	m.FracSharedRO = 0.20
	m.SharedRWBlocks = 100_000
	m.FracSharedRW = 0.30
	m.RWSweep = true
	m.RWSharingDegree = 4
	m.SeqRunLen = 32
	add(m)

	m = base("ocean", "splash2", "grid solver; nearest-neighbour boundary sharing")
	m.PrivateBlocks = 10_000
	m.SharedRWBlocks = 140_000
	m.FracSharedRW = 0.50
	m.RWSweep = true
	m.RWSharingDegree = 2
	m.WriteFrac = 0.4
	m.SeqRunLen = 32
	add(m)

	m = base("radix", "splash2", "radix sort; permutation writes over a huge key array")
	m.PrivateBlocks = 8_000
	m.SharedRWBlocks = 150_000
	m.FracSharedRW = 0.45
	m.RWSweep = true
	m.RWSharingDegree = 2
	m.WriteFrac = 0.7
	m.SeqRunLen = 4
	add(m)

	m = base("water", "splash2", "molecular dynamics; small working set, modest sharing")
	m.PrivateBlocks = 10_000
	m.SharedRWBlocks = 6_000
	m.FracSharedRW = 0.12
	m.RWSharingDegree = 4
	m.FracLock = 0.02
	add(m)

	// -------------------------------------------------------------- SPEC OMP
	m = base("applu", "specomp", "CFD solver; big private tiles, face sharing")
	m.PrivateBlocks = 25_000
	m.SharedRWBlocks = 100_000
	m.FracSharedRW = 0.16
	m.RWSweep = true
	m.RWSharingDegree = 2
	m.WriteFrac = 0.4
	m.SeqRunLen = 48
	add(m)

	m = base("equake", "specomp", "earthquake FEM; shared mesh read-mostly")
	m.PrivateBlocks = 10_000
	m.SharedROBlocks = 50_000
	m.FracSharedRO = 0.30
	m.SharedRWBlocks = 20_000
	m.FracSharedRW = 0.10
	m.RWSharingDegree = 2
	m.SeqRunLen = 24
	add(m)

	m = base("swim", "specomp", "shallow-water stencil; streaming private + halo sharing")
	m.PrivateBlocks = 20_000
	m.SharedRWBlocks = 100_000
	m.FracSharedRW = 0.25
	m.RWSweep = true
	m.RWSharingDegree = 2
	m.WriteFrac = 0.45
	m.SeqRunLen = 32
	add(m)

	m = base("wupwise", "specomp", "lattice QCD; mixed private/shared traffic")
	m.PrivateBlocks = 15_000
	m.SharedROBlocks = 20_000
	m.FracSharedRO = 0.20
	m.SharedRWBlocks = 10_000
	m.FracSharedRW = 0.08
	m.RWSharingDegree = 2
	m.SeqRunLen = 16
	add(m)

	return s
}

// ByName returns the named suite model.
func ByName(name string) (Model, error) {
	for _, m := range Suite() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("workloads: unknown workload %q (see Names)", name)
}

// Names lists the suite's workload names in order.
func Names() []string {
	var names []string
	for _, m := range Suite() {
		names = append(names, m.Name)
	}
	return names
}

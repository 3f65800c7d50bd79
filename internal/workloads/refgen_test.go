package workloads

import (
	"fmt"
	"testing"

	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// refThreadGen is the thread generator in its per-reference form, the
// reference threadGen is held to: it derives the phase by division on
// every jump (phase), reduces every rotated block with a modulo, steps
// its run cursor and sweep with a modulo, chooses jump targets through
// closures (seqOrJump), and builds its own Zipf tables.
type refThreadGen struct {
	m      Model
	tid    uint8
	rnd    *rng.Source
	issued int

	privZipf *rng.Zipf
	roZipf   *rng.Zipf

	cursor  [4]uint64 // last in-region block per region kind
	running [4]int    // remaining accesses of the current sequential run
	sweep   uint64    // RWSweep cursor (per-thread revolution position)

	pSeqStart float64
}

func newRefThreadGen(m Model, tid uint8, rnd *rng.Source) (*refThreadGen, error) {
	g := &refThreadGen{m: m, tid: tid, rnd: rnd}
	var err error
	if g.privZipf, err = rng.NewZipf(rnd.Split(), m.PrivateZipf, m.PrivateBlocks); err != nil {
		return nil, err
	}
	if m.SharedROBlocks > 0 {
		if g.roZipf, err = rng.NewZipf(rnd.Split(), m.SharedROZipf, m.SharedROBlocks); err != nil {
			return nil, err
		}
	}
	if m.SeqRunLen > 1 {
		g.pSeqStart = 1.0 / float64(m.SeqRunLen)
	}
	return g, nil
}

// phase returns the thread's current phase in [0, Phases).
func (g *refThreadGen) phase() int {
	p := g.issued * g.m.Phases / g.m.AccessesPerThread
	if p >= g.m.Phases {
		p = g.m.Phases - 1
	}
	return p
}

func (g *refThreadGen) Next() (trace.Access, bool) {
	if g.issued >= g.m.AccessesPerThread {
		return trace.Access{}, false
	}
	kind := g.pickRegion()
	blockNo, write := g.pickBlock(kind)
	pc := g.pickPC(kind)
	g.issued++
	return trace.Access{
		Core:  g.tid,
		Write: write,
		PC:    pc,
		Addr:  trace.Addr(blockNo << trace.BlockShift),
	}, true
}

func (g *refThreadGen) Err() error { return nil }

func (g *refThreadGen) pickRegion() regionKind {
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

func (g *refThreadGen) pickBlock(kind regionKind) (blockNo uint64, write bool) {
	var inRegion uint64
	var regionSize int
	switch kind {
	case regPrivate:
		regionSize = g.m.PrivateBlocks
		inRegion = g.seqOrJump(kind, regionSize, func() uint64 {
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

func (g *refThreadGen) rwWindowBlock() uint64 {
	size := uint64(g.m.SharedRWBlocks)
	window := uint64(float64(size) * g.m.RWWindowFrac)
	if window < 1 {
		window = 1
	}
	cluster := uint64(int(g.tid) / g.m.RWSharingDegree)
	start := (uint64(g.phase())*window + cluster*window*7919) % size
	return (start + g.rnd.Uint64n(window)) % size
}

func (g *refThreadGen) rwSweepBlock() uint64 {
	size := uint64(g.m.SharedRWBlocks)
	clusters := uint64((g.m.Threads + g.m.RWSharingDegree - 1) / g.m.RWSharingDegree)
	span := size / clusters
	if span < 1 {
		span = 1
	}
	cluster := uint64(int(g.tid) / g.m.RWSharingDegree)
	jitter := g.rnd.Uint64n(16)
	pos := (g.sweep + jitter) % span
	g.sweep++
	return (cluster*span + pos) % size
}

// seqOrJump implements the sequential-run/random-jump mix: while a run is
// active the cursor advances by one block; otherwise jump() chooses a new
// position and, with the model's run-start probability, begins a new run.
func (g *refThreadGen) seqOrJump(kind regionKind, regionSize int, jump func() uint64) uint64 {
	if g.running[kind] > 0 {
		g.running[kind]--
		g.cursor[kind] = (g.cursor[kind] + 1) % uint64(regionSize)
		return g.cursor[kind]
	}
	b := jump()
	g.cursor[kind] = b
	if g.pSeqStart > 0 && g.rnd.Bool(g.pSeqStart) {
		g.running[kind] = 1 + g.rnd.Intn(2*g.m.SeqRunLen-1)
	}
	return b
}

func (g *refThreadGen) pickPC(kind regionKind) uint64 {
	k := g.rnd.Uint64n(uint64(g.m.PCsPerRegion))
	return pcBase + uint64(kind)*pcRegionStride + k*4
}

// requireSameStream reads got and want to their ends in lockstep, a chunk
// at a time, and fails at the first access that differs.
func requireSameStream(t *testing.T, name string, got, want trace.Reader) {
	t.Helper()
	bg := make([]trace.Access, trace.ChunkSize)
	bw := make([]trace.Access, trace.ChunkSize)
	for pos := 0; ; pos += len(bw) {
		ng, nw := trace.ReadBatch(got, bg), trace.ReadBatch(want, bw)
		for i := range min(ng, nw) {
			if bg[i] != bw[i] {
				t.Fatalf("%s: access %d = %v, want %v", name, pos+i, bg[i], bw[i])
			}
		}
		if ng != nw {
			t.Fatalf("%s: %d accesses, want %d", name, pos+ng, pos+nw)
		}
		if nw < len(bw) {
			return
		}
	}
}

// edgeModels are models at the corners of the generator's arithmetic.
func edgeModels() []Model {
	base := tiny()
	base.FracSharedRW, base.SharedRWBlocks, base.RWWindowFrac, base.RWSharingDegree = 0.3, 50, 0.3, 2

	manyPhases := base // phases skipped between consecutive accesses
	manyPhases.Name, manyPhases.Phases, manyPhases.AccessesPerThread = "many-phases", 700, 300

	oddPhases := base // boundaries that are not multiples of the phase length
	oddPhases.Name, oddPhases.Phases, oddPhases.AccessesPerThread = "odd-phases", 7, 1001

	clamped := base // more sweep clusters than blocks: the span clamps to 1
	clamped.Name, clamped.RWSweep, clamped.SharedRWBlocks, clamped.RWSharingDegree = "clamped-sweep", true, 3, 1

	shortSpan := base // spans shorter than the sweep jitter
	shortSpan.Name, shortSpan.RWSweep, shortSpan.SharedRWBlocks, shortSpan.RWSharingDegree = "short-span", true, 37, 1

	sweep := base
	sweep.Name, sweep.RWSweep, sweep.FracSharedRW, sweep.SharedRWBlocks = "sweep", true, 0.5, 400

	window := base
	window.Name, window.RWWindowFrac, window.SharedRWBlocks = "full-window", 1, 97

	random := base // no sequential runs
	random.Name, random.SeqRunLen = "seq-run-1", 1

	return []Model{base, manyPhases, oddPhases, clamped, shortSpan, sweep, window, random}
}

// TestGenerateMatchesReferenceGenerator holds Generate to the
// per-reference generator access by access: every suite model at three
// scales and three seeds, and the edge models. TestMixBatchedMatchesReference
// covers the same generator placed by Mix (a core and address offset per
// program).
func TestGenerateMatchesReferenceGenerator(t *testing.T) {
	var models []Model
	for _, f := range []float64{1, 0.1, 0.05} {
		for _, m := range Suite() {
			models = append(models, m.Scaled(f))
		}
	}
	models = append(models, edgeModels()...)
	for _, m := range models {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s-%d-seed%d", m.Name, m.TotalAccesses(), seed)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				r, err := m.Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				requireSameStream(t, name, r, referenceGenerate(t, m, seed))
			})
		}
	}
}

package workloads

import (
	"math"
	"strings"
	"testing"

	"sharellc/internal/trace"
)

func TestSuiteAllValid(t *testing.T) {
	suite := Suite()
	if len(suite) < 12 {
		t.Fatalf("suite has only %d models", len(suite))
	}
	seen := map[string]bool{}
	for _, m := range suite {
		if err := m.Validate(); err != nil {
			t.Errorf("model %s invalid: %v", m.Name, err)
		}
		if seen[m.Name] {
			t.Errorf("duplicate model name %s", m.Name)
		}
		seen[m.Name] = true
		switch m.Suite {
		case "parsec", "splash2", "specomp":
		default:
			t.Errorf("model %s has unknown suite %q", m.Name, m.Suite)
		}
	}
}

// TestSweepModelsHaveRevolutions lints the suite's calibration: every
// sweep-pattern model must complete at least one full revolution of its
// cluster span (otherwise the shared region has no reuse at all and the
// model measures nothing).
func TestSweepModelsHaveRevolutions(t *testing.T) {
	for _, m := range Suite() {
		if !m.RWSweep {
			continue
		}
		clusters := (m.Threads + m.RWSharingDegree - 1) / m.RWSharingDegree
		span := m.SharedRWBlocks / clusters
		if span < 1 {
			span = 1
		}
		rwPerThread := float64(m.AccessesPerThread) * m.FracSharedRW
		revolutions := rwPerThread / float64(span)
		if revolutions < 1.5 {
			t.Errorf("%s: only %.2f sweep revolutions (span %d, rw/thread %.0f)",
				m.Name, revolutions, span, rwPerThread)
		}
	}
}

// TestSuiteClassCoverage lints the capacity-class spread the oracle
// experiments rely on: the suite must contain shared working sets below
// the 4 MB capacity, between 4 MB and 8 MB, and above 8 MB, plus
// low-sharing applications.
func TestSuiteClassCoverage(t *testing.T) {
	const blocks4MB, blocks8MB = 65536, 131072
	var under4, between, over8, lowSharing int
	for _, m := range Suite() {
		shared := m.SharedRWBlocks + m.SharedROBlocks
		frac := m.FracSharedRW + m.FracSharedRO
		switch {
		case frac < 0.1:
			lowSharing++
		case shared < blocks4MB:
			under4++
		case shared < blocks8MB:
			between++
		default:
			over8++
		}
	}
	if under4 == 0 || between == 0 || over8 == 0 || lowSharing == 0 {
		t.Errorf("capacity classes unbalanced: <4MB=%d, 4-8MB=%d, >8MB=%d, low-sharing=%d",
			under4, between, over8, lowSharing)
	}
}

func TestModelByName(t *testing.T) {
	m, err := ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "canneal" {
		t.Errorf("got %s", m.Name)
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("unknown name accepted")
	}
	if len(Names()) != len(Suite()) {
		t.Error("Names length mismatch")
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	good := base("t", "parsec", "")
	bad := []func(*Model){
		func(m *Model) { m.Name = "" },
		func(m *Model) { m.Threads = 0 },
		func(m *Model) { m.Threads = 200 },
		func(m *Model) { m.AccessesPerThread = 0 },
		func(m *Model) { m.PrivateBlocks = 0 },
		func(m *Model) { m.FracSharedRO = -0.1 },
		func(m *Model) { m.FracSharedRO = 0.7; m.FracSharedRW = 0.7 },
		func(m *Model) { m.FracSharedRO = 0.2; m.SharedROBlocks = 0 },
		func(m *Model) { m.FracSharedRW = 0.2; m.SharedRWBlocks = 0 },
		func(m *Model) { m.FracLock = 0.2; m.LockBlocks = 0 },
		func(m *Model) { m.WriteFrac = 1.5 },
		func(m *Model) { m.Phases = 0 },
		func(m *Model) { m.FracSharedRW = 0.2; m.SharedRWBlocks = 100; m.RWWindowFrac = 0 },
		func(m *Model) { m.FracSharedRW = 0.2; m.SharedRWBlocks = 100; m.RWSharingDegree = 0 },
		func(m *Model) { m.SeqRunLen = 0 },
		func(m *Model) { m.Burst = 0 },
		func(m *Model) { m.PCsPerRegion = 0 },
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("base model invalid: %v", err)
	}
	for i, mutate := range bad {
		m := good
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d validated: %+v", i, m)
		}
	}
}

// genAll collects a model's full trace.
func genAll(t *testing.T, m Model, seed uint64) []trace.Access {
	t.Helper()
	r, err := m.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := trace.Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

// tiny returns a fast-to-generate model for directed tests.
func tiny() Model {
	m := base("tiny", "parsec", "test model")
	m.Threads = 4
	m.AccessesPerThread = 5_000
	m.PrivateBlocks = 500
	m.SharedROBlocks = 400
	m.FracSharedRO = 0.2
	m.SharedRWBlocks = 600
	m.FracSharedRW = 0.2
	m.RWSharingDegree = 4
	m.FracLock = 0.02
	return m
}

func TestGenerateLengthAndCores(t *testing.T) {
	m := tiny()
	accs := genAll(t, m, 1)
	if len(accs) != m.TotalAccesses() {
		t.Fatalf("trace length %d, want %d", len(accs), m.TotalAccesses())
	}
	perCore := map[uint8]int{}
	for _, a := range accs {
		perCore[a.Core]++
	}
	if len(perCore) != m.Threads {
		t.Fatalf("trace uses %d cores, want %d", len(perCore), m.Threads)
	}
	for c, n := range perCore {
		if n != m.AccessesPerThread {
			t.Errorf("core %d issued %d accesses, want %d", c, n, m.AccessesPerThread)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := tiny()
	a := genAll(t, m, 42)
	b := genAll(t, m, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverged at access %d", i)
		}
	}
}

func TestGenerateSeedSensitive(t *testing.T) {
	m := tiny()
	a := genAll(t, m, 1)
	b := genAll(t, m, 2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if float64(same) > 0.5*float64(len(a)) {
		t.Errorf("seeds 1 and 2 produced %d/%d identical accesses", same, len(a))
	}
}

func TestModelsDifferPerName(t *testing.T) {
	// Same seed, different models → different streams (name is folded in).
	a := tiny()
	b := tiny()
	b.Name = "tiny2"
	ta := genAll(t, a, 7)
	tb := genAll(t, b, 7)
	same := 0
	for i := range ta {
		if ta[i] == tb[i] {
			same++
		}
	}
	if float64(same) > 0.5*float64(len(ta)) {
		t.Error("different model names produced near-identical traces")
	}
}

func TestRegionDisjointness(t *testing.T) {
	accs := genAll(t, tiny(), 3)
	for _, a := range accs {
		blockNo := a.Addr.BlockID()
		region := blockNo >> 40
		switch region {
		case 1: // private: check thread slot matches issuing core
			slot := (blockNo - privateBase) / privateStride
			if slot != uint64(a.Core) {
				t.Fatalf("core %d touched private region of thread %d", a.Core, slot)
			}
		case 2: // shared RO must never be written
			if a.Write {
				t.Fatal("write to shared read-only region")
			}
		case 3, 4: // shared RW / locks
		default:
			t.Fatalf("access outside any region: block %#x", blockNo)
		}
	}
}

func TestRegionMixRoughlyMatchesFractions(t *testing.T) {
	m := tiny()
	accs := genAll(t, m, 5)
	counts := map[uint64]int{}
	for _, a := range accs {
		counts[a.Addr.BlockID()>>40]++
	}
	total := float64(len(accs))
	check := func(region uint64, want float64) {
		got := float64(counts[region]) / total
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("region %d fraction = %.3f, want ≈%.2f", region, got, want)
		}
	}
	check(2, m.FracSharedRO)
	check(3, m.FracSharedRW)
	check(1, 1-m.FracSharedRO-m.FracSharedRW-m.FracLock)
}

func TestRWSharingDegreeClusters(t *testing.T) {
	// With RWSharingDegree 2 on 4 threads, cores {0,1} and {2,3} use
	// disjoint windows most of the time. Verify cross-cluster overlap in
	// shared-RW blocks is far below within-cluster overlap.
	m := tiny()
	m.RWSharingDegree = 2
	m.Phases = 1 // freeze windows
	accs := genAll(t, m, 9)
	touched := make([]map[uint64]bool, m.Threads)
	for i := range touched {
		touched[i] = map[uint64]bool{}
	}
	for _, a := range accs {
		if a.Addr.BlockID()>>40 == 3 {
			touched[a.Core][a.Addr.BlockID()] = true
		}
	}
	overlap := func(a, b map[uint64]bool) int {
		n := 0
		for k := range a {
			if b[k] {
				n++
			}
		}
		return n
	}
	within := overlap(touched[0], touched[1])
	across := overlap(touched[0], touched[2])
	if within == 0 {
		t.Fatal("cluster mates never overlapped in shared RW")
	}
	if across >= within {
		t.Errorf("cross-cluster overlap %d >= within-cluster %d", across, within)
	}
}

func TestSharedRODraws(t *testing.T) {
	// All threads draw from the same RO region; with a hot zipf head the
	// most popular block should be touched by several threads.
	m := tiny()
	m.SharedROZipf = 1.2
	accs := genAll(t, m, 11)
	byBlock := map[uint64]map[uint8]bool{}
	for _, a := range accs {
		if a.Addr.BlockID()>>40 == 2 {
			if byBlock[a.Addr.BlockID()] == nil {
				byBlock[a.Addr.BlockID()] = map[uint8]bool{}
			}
			byBlock[a.Addr.BlockID()][a.Core] = true
		}
	}
	maxDeg := 0
	for _, cores := range byBlock {
		if len(cores) > maxDeg {
			maxDeg = len(cores)
		}
	}
	if maxDeg < m.Threads {
		t.Errorf("hottest RO block touched by %d threads, want %d", maxDeg, m.Threads)
	}
}

func TestScaled(t *testing.T) {
	m := tiny()
	s := m.Scaled(0.5)
	if s.AccessesPerThread != m.AccessesPerThread/2 {
		t.Errorf("scaled accesses = %d", s.AccessesPerThread)
	}
	if s.PrivateBlocks != m.PrivateBlocks/2 || s.SharedROBlocks != m.SharedROBlocks/2 {
		t.Error("scaled region sizes wrong")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled model invalid: %v", err)
	}
	// Extreme downscale clamps to 1, never 0.
	e := m.Scaled(1e-9)
	if e.PrivateBlocks < 1 || e.AccessesPerThread < 1 {
		t.Error("extreme scaling produced zero geometry")
	}
}

func TestFootprintBlocks(t *testing.T) {
	m := tiny()
	want := m.Threads*m.PrivateBlocks + m.SharedROBlocks + m.SharedRWBlocks + m.LockBlocks
	if got := m.FootprintBlocks(); got != want {
		t.Errorf("FootprintBlocks = %d, want %d", got, want)
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	m := tiny()
	m.Threads = 0
	if _, err := m.Generate(1); err == nil {
		t.Error("Generate accepted invalid model")
	}
}

func TestPCsComeFromRegionPools(t *testing.T) {
	m := tiny()
	m.PCsPerRegion = 4
	accs := genAll(t, m, 13)
	pcs := map[uint64]bool{}
	for _, a := range accs {
		pcs[a.PC] = true
	}
	// 4 region kinds x 4 PCs = at most 16 distinct PCs.
	if len(pcs) > 16 {
		t.Errorf("%d distinct PCs, want <= 16", len(pcs))
	}
	for pc := range pcs {
		if pc < pcBase {
			t.Errorf("PC %#x below pool base", pc)
		}
	}
}

func TestRWSweepCoversRegion(t *testing.T) {
	m := tiny()
	m.RWSweep = true
	m.SharedRWBlocks = 300
	m.FracSharedRW = 0.4
	m.RWSharingDegree = 4 // one cluster of 4 threads
	accs := genAll(t, m, 19)
	touched := map[uint64]bool{}
	for _, a := range accs {
		if a.Addr.BlockID()>>40 == 3 {
			touched[a.Addr.BlockID()] = true
		}
	}
	// 4 threads x 5000 x 0.4 = 8000 RW accesses over a 300-block region:
	// several revolutions, so the whole region must be covered.
	if len(touched) < m.SharedRWBlocks*9/10 {
		t.Errorf("sweep touched %d of %d region blocks", len(touched), m.SharedRWBlocks)
	}
}

func TestRWSweepBurstsAreShared(t *testing.T) {
	// Loose-lockstep sweeps must produce clustered cross-core touches:
	// most region blocks should be touched by at least 2 distinct cores
	// within a window of 2000 global accesses.
	m := tiny()
	m.RWSweep = true
	m.SharedRWBlocks = 400
	m.FracSharedRW = 0.4
	m.RWSharingDegree = 4
	accs := genAll(t, m, 23)
	type touch struct {
		idx  int
		core uint8
	}
	touches := map[uint64][]touch{}
	for i, a := range accs {
		if a.Addr.BlockID()>>40 == 3 {
			b := a.Addr.BlockID()
			touches[b] = append(touches[b], touch{i, a.Core})
		}
	}
	clustered := 0
	for _, ts := range touches {
		for i := 1; i < len(ts); i++ {
			if ts[i].core != ts[i-1].core && ts[i].idx-ts[i-1].idx < 2000 {
				clustered++
				break
			}
		}
	}
	if frac := float64(clustered) / float64(len(touches)); frac < 0.6 {
		t.Errorf("only %.0f%% of sweep blocks saw clustered cross-core touches", 100*frac)
	}
}

func TestRWSweepClustersDisjoint(t *testing.T) {
	m := tiny()
	m.RWSweep = true
	m.SharedRWBlocks = 400
	m.FracSharedRW = 0.4
	m.RWSharingDegree = 2 // clusters {0,1} and {2,3}
	accs := genAll(t, m, 29)
	byCore := make([]map[uint64]bool, m.Threads)
	for i := range byCore {
		byCore[i] = map[uint64]bool{}
	}
	for _, a := range accs {
		if a.Addr.BlockID()>>40 == 3 {
			byCore[a.Core][a.Addr.BlockID()] = true
		}
	}
	overlap := func(a, b map[uint64]bool) int {
		n := 0
		for k := range a {
			if b[k] {
				n++
			}
		}
		return n
	}
	within := overlap(byCore[0], byCore[1])
	across := overlap(byCore[0], byCore[2])
	if within == 0 {
		t.Fatal("cluster mates never overlapped under sweep")
	}
	if across >= within/2 {
		t.Errorf("cross-cluster overlap %d not well below within-cluster %d", across, within)
	}
}

func TestSequentialRunsPresent(t *testing.T) {
	m := tiny()
	m.SeqRunLen = 16
	m.FracSharedRO = 0
	m.FracSharedRW = 0
	m.FracLock = 0
	m.Threads = 1
	accs := genAll(t, m, 17)
	seq := 0
	for i := 1; i < len(accs); i++ {
		if accs[i].Addr.BlockID() == accs[i-1].Addr.BlockID()+1 {
			seq++
		}
	}
	frac := float64(seq) / float64(len(accs))
	if frac < 0.5 {
		t.Errorf("sequential-successor fraction = %.2f, want > 0.5 with SeqRunLen 16", frac)
	}
}

// TestBlockIndexIsDenseBijection checks BlockIndex over everything
// Generate emits: every block lands in [0, FootprintBlocks()), distinct
// blocks land on distinct indices, and each region's first and last
// block land on the region's bounds in the documented order.
func TestBlockIndexIsDenseBijection(t *testing.T) {
	models := append([]Model{tiny()}, edgeModels()...)
	for _, m := range Suite() {
		models = append(models, m.Scaled(0.02))
	}
	for _, m := range models {
		fp := m.FootprintBlocks()
		owner := make(map[uint32]uint64)
		for _, a := range genAll(t, m, 1) {
			b := a.Addr.BlockID()
			id := m.BlockIndex(b)
			if int(id) >= fp {
				t.Fatalf("%s: block %#x → index %d, outside [0, %d)", m.Name, b, id, fp)
			}
			if prev, ok := owner[id]; ok && prev != b {
				t.Fatalf("%s: blocks %#x and %#x share index %d", m.Name, prev, b, id)
			}
			owner[id] = b
		}

		// Region bounds: [first block, last block] → [first index, last index].
		type bound struct {
			first, last uint64
			lo, hi      int
		}
		var bounds []bound
		next := 0
		region := func(base uint64, size int) {
			if size > 0 {
				bounds = append(bounds, bound{base, base + uint64(size) - 1, next, next + size - 1})
				next += size
			}
		}
		for tid := 0; tid < m.Threads; tid++ {
			region(privateBase+uint64(tid)*privateStride, m.PrivateBlocks)
		}
		region(sharedROBase, m.SharedROBlocks)
		region(sharedRWBase, m.SharedRWBlocks)
		region(lockBase, m.LockBlocks)
		if next != fp {
			t.Fatalf("%s: regions cover %d blocks, FootprintBlocks %d", m.Name, next, fp)
		}
		for _, r := range bounds {
			if lo, hi := m.BlockIndex(r.first), m.BlockIndex(r.last); int(lo) != r.lo || int(hi) != r.hi {
				t.Errorf("%s: region [%#x, %#x] → [%d, %d], want [%d, %d]", m.Name, r.first, r.last, lo, hi, r.lo, r.hi)
			}
		}
	}
}

// TestValidateBoundsFootprintToUint32: dense block indices are uint32, so
// a model whose footprint passes math.MaxUint32 is rejected, and one that
// reaches it exactly is not.
func TestValidateBoundsFootprintToUint32(t *testing.T) {
	m := base("huge", "parsec", "")
	m.Threads, m.PrivateBlocks = 1, 1
	m.SharedROBlocks = math.MaxUint32 - 1 - m.LockBlocks
	if err := m.Validate(); err != nil {
		t.Errorf("footprint of exactly MaxUint32 blocks rejected: %v", err)
	}
	m.SharedROBlocks++
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "uint32") {
		t.Errorf("footprint of %d blocks: Validate = %v", m.FootprintBlocks(), err)
	}
	m = base("wide", "parsec", "")
	m.Threads, m.PrivateBlocks = 2, 1<<31
	if err := m.Validate(); err == nil {
		t.Errorf("footprint of %d private blocks accepted", m.FootprintBlocks())
	}
}

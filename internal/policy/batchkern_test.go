package policy

import (
	"fmt"
	"reflect"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// kernelNames lists the catalogue policies that carry a monomorphic
// batch kernel: every policy but OPT, which stays on the generic loop by
// design (see batchkern.go).
func kernelNames() []string {
	var names []string
	for _, n := range Names(1) {
		if n != "opt" {
			names = append(names, n)
		}
	}
	return names
}

// kernStream builds a deterministic stream with a hot working set (so
// hits dominate, as in real replay), several cores and a small PC pool
// (so SHiP's SHCT trains and SHiP-S sees cross-core reuse).
func kernStream(n, blocks int, seed uint64) []cache.AccessInfo {
	rnd := rng.New(seed)
	stream := make([]cache.AccessInfo, n)
	for i := range stream {
		b := uint64(rnd.Intn(blocks))
		if rnd.Bool(0.5) {
			b = uint64(rnd.Intn(blocks / 8))
		}
		stream[i] = cache.AccessInfo{
			Block: b,
			Core:  uint8(rnd.Intn(4)),
			PC:    0x400000 + uint64(rnd.Intn(96))*12,
			Index: int32(i),
		}
	}
	cache.AssignBlockIDs(stream)
	return stream
}

// numBlocksOf returns the dense BlockID space size of stream.
func numBlocksOf(stream []cache.AccessInfo) int {
	n := 0
	for i := range stream {
		if int(stream[i].BlockID) >= n {
			n = int(stream[i].BlockID) + 1
		}
	}
	return n
}

// genericTwin hides a specialized policy's kernel: it holds the policy
// in a named interface field and forwards only the Policy methods — the
// way core.Protector holds its base — so NewSetAssoc binds no
// BatchKernel and ReplayBatchCols runs its generic interface loop over
// the very same policy state.
type genericTwin struct {
	base cache.Policy
}

func (g genericTwin) Name() string                            { return g.base.Name() }
func (g genericTwin) Attach(sets, ways int)                   { g.base.Attach(sets, ways) }
func (g genericTwin) Hit(set, way int, a *cache.AccessInfo)   { g.base.Hit(set, way, a) }
func (g genericTwin) Victim(set int, a *cache.AccessInfo) int { return g.base.Victim(set, a) }
func (g genericTwin) Fill(set, way int, a *cache.AccessInfo)  { g.base.Fill(set, way, a) }

// replayCols drives stream through c.ReplayBatchCols in deliberately
// uneven chunks, returning the outcome words and the final residency
// table (BlockID → 1+line index of every resident block).
func replayCols(c *cache.SetAssoc, stream []cache.AccessInfo, numBlocks, chunk int) (out, active []uint32) {
	blk := make([]uint64, len(stream))
	id := make([]uint32, len(stream))
	for i := range stream {
		blk[i] = stream[i].Block
		id[i] = stream[i].BlockID
	}
	active = make([]uint32, numBlocks)
	lineID := make([]uint32, c.Sets()*c.Ways())
	out = make([]uint32, len(stream))
	for lo := 0; lo < len(stream); lo += chunk {
		hi := lo + chunk
		if hi > len(stream) {
			hi = len(stream)
		}
		c.ReplayBatchCols(blk[lo:hi], id[lo:hi], stream[lo:hi], active, lineID, out[lo:hi])
	}
	return out, active
}

// TestBatchPolicyVsGeneric replays every specialized policy through its
// monomorphic kernel and through the generic interface loop (the policy
// behind a genericTwin) and demands byte-equal outcome words,
// identical cache contents, and deeply equal final policy
// state — including RNG cursors, dueling counters and SHCT tables. Both
// a SWAR-eligible associativity (16) and a scalar-search one (4) run;
// PLRU covers both since they are powers of two.
func TestBatchPolicyVsGeneric(t *testing.T) {
	const seed = 0x5eed
	stream := kernStream(60000, 4096, 11)
	numBlocks := numBlocksOf(stream)
	for _, ways := range []int{4, 16} {
		sizeBytes := 64 * ways * trace.BlockSize // 64 sets
		for _, name := range kernelNames() {
			t.Run(fmt.Sprintf("%s/ways%d", name, ways), func(t *testing.T) {
				fac, err := ByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				specPol, genPol := fac(), fac()
				spec, err := cache.NewSetAssoc(sizeBytes, ways, specPol)
				if err != nil {
					t.Fatal(err)
				}
				gen, err := cache.NewSetAssoc(sizeBytes, ways, genericTwin{genPol})
				if err != nil {
					t.Fatal(err)
				}
				if !spec.HasBatchKernel() {
					t.Fatalf("policy %s: no batch kernel bound", name)
				}
				if gen.HasBatchKernel() {
					t.Fatal("generic twin bound a kernel")
				}
				outSpec, resSpec := replayCols(spec, stream, numBlocks, 777)
				outGen, resGen := replayCols(gen, stream, numBlocks, 777)
				for k := range outSpec {
					if outSpec[k] != outGen[k] {
						t.Fatalf("access %d (block %d): kernel outcome %#x, generic %#x",
							k, stream[k].Block, outSpec[k], outGen[k])
					}
				}
				hits, evicts := 0, 0
				for _, o := range outSpec {
					if o&cache.BatchHit != 0 {
						hits++
					}
					if o&cache.BatchEvict != 0 {
						evicts++
					}
				}
				if hits == 0 || evicts == 0 {
					t.Fatalf("degenerate stream: hits=%d evicts=%d", hits, evicts)
				}
				if !reflect.DeepEqual(resSpec, resGen) {
					t.Fatal("cache contents diverge")
				}
				if !reflect.DeepEqual(specPol, genPol) {
					t.Fatalf("final policy state diverges:\nkernel:  %+v\ngeneric: %+v", specPol, genPol)
				}
			})
		}
	}
}

// BenchmarkBatchKernel measures the monomorphic probe of every
// specialized policy (plus each policy's generic interface loop under
// /generic, through a genericTwin, so it includes the twin's forwarding
// call) in ns per access over a hit-heavy stream. The benchmark's
// policy.probe_ns_per_access layer metric is the end-to-end view of the
// same probes.
func BenchmarkBatchKernel(b *testing.B) {
	const (
		seed  = 0xbe4c
		ways  = 16
		nAccs = 1 << 16
	)
	stream := kernStream(nAccs, 1<<13, 23)
	numBlocks := numBlocksOf(stream)
	blk := make([]uint64, len(stream))
	id := make([]uint32, len(stream))
	for i := range stream {
		blk[i] = stream[i].Block
		id[i] = stream[i].BlockID
	}
	run := func(b *testing.B, name string, specialized bool) {
		fac, err := ByName(name, seed)
		if err != nil {
			b.Fatal(err)
		}
		pol := fac()
		if !specialized {
			pol = genericTwin{pol}
		}
		c, err := cache.NewSetAssoc(256*ways*trace.BlockSize, ways, pol)
		if err != nil {
			b.Fatal(err)
		}
		if c.HasBatchKernel() != specialized {
			b.Fatalf("kernel bound = %v, want %v", c.HasBatchKernel(), specialized)
		}
		active := make([]uint32, numBlocks)
		lineID := make([]uint32, c.Sets()*ways)
		out := make([]uint32, batchChunk)
		b.SetBytes(int64(len(stream)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(stream); lo += batchChunk {
				hi := lo + batchChunk
				if hi > len(stream) {
					hi = len(stream)
				}
				c.ReplayBatchCols(blk[lo:hi], id[lo:hi], stream[lo:hi], active, lineID, out[:hi-lo])
			}
		}
		b.StopTimer()
		nsPerAccess := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(stream))
		b.ReportMetric(nsPerAccess, "ns/access")
	}
	for _, name := range kernelNames() {
		b.Run(name, func(b *testing.B) { run(b, name, true) })
	}
	for _, name := range kernelNames() {
		b.Run(name+"/generic", func(b *testing.B) { run(b, name, false) })
	}
}

// batchChunk mirrors internal/sharing's batchSize (not importable here:
// sharing imports policy).
const batchChunk = 2 << 10

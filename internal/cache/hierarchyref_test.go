package cache

import (
	"fmt"
	"testing"

	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// refHierarchy is the private hierarchy as it was before the private
// levels got their own cache type: one SetAssoc with a &LRU{} policy per
// level and core, driven through Access and Result. It is kept as the
// reference the monomorphic Hierarchy is compared against.
type refHierarchy struct {
	l1, l2 []*SetAssoc

	refs, l1Hits, l2Hits, llcRefs uint64
}

func newRefHierarchy(t *testing.T, cfg Config) *refHierarchy {
	t.Helper()
	h := &refHierarchy{}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := NewSetAssoc(cfg.L1Size, cfg.L1Ways, &LRU{})
		if err != nil {
			t.Fatal(err)
		}
		l2, err := NewSetAssoc(cfg.L2Size, cfg.L2Ways, &LRU{})
		if err != nil {
			t.Fatal(err)
		}
		h.l1, h.l2 = append(h.l1, l1), append(h.l2, l2)
	}
	return h
}

func (h *refHierarchy) access(a trace.Access) bool {
	h.refs++
	info := AccessInfo{Block: a.Addr.BlockID(), Core: a.Core, PC: a.PC, Write: a.Write}
	if h.l1[a.Core].Access(info).Hit {
		h.l1Hits++
		return false
	}
	if h.l2[a.Core].Access(info).Hit {
		h.l2Hits++
		return false
	}
	h.llcRefs++
	return true
}

func (h *refHierarchy) invalidate(block uint64) {
	for i := range h.l1 {
		invalidateLine(h.l1[i], block)
		invalidateLine(h.l2[i], block)
	}
}

// invalidateLine drops block from c if it is resident.
func invalidateLine(c *SetAssoc, block uint64) {
	set := c.setOf(block)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == tagOf(block) {
			c.lines[base+w] = 0
			c.valid[set]--
			return
		}
	}
}

// TestHierarchyMatchesSetAssocLRU drives the Hierarchy and the reference
// with the same random traces — small block pools so that sets overflow,
// interleaved back-invalidations so that sets carry holes, writes mixed
// in — and requires the same outcome per access and the same counters.
func TestHierarchyMatchesSetAssocLRU(t *testing.T) {
	for _, cores := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			cfg := Config{
				Cores:  cores,
				L1Size: 16 * trace.BlockSize, L1Ways: 4,
				L2Size: 64 * trace.BlockSize, L2Ways: 8,
				LLCSize: 256 * trace.BlockSize, LLCWays: 16,
			}
			h, err := newHierarchy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefHierarchy(t, cfg)
			rnd := rng.New(uint64(7 + cores))
			for i := 0; i < 200000; i++ {
				if rnd.Intn(50) == 0 {
					b := rnd.Uint64n(300)
					h.invalidate(b)
					ref.invalidate(b)
					continue
				}
				a := trace.Access{
					Core:  uint8(rnd.Intn(cores)),
					Write: rnd.Bool(0.3),
					Addr:  trace.Addr(rnd.Uint64n(300) << trace.BlockShift),
				}
				toLLC, err := h.access(a)
				if err != nil {
					t.Fatal(err)
				}
				if w := ref.access(a); toLLC != w {
					t.Fatalf("access %d (%v): toLLC = %v, reference %v", i, a, toLLC, w)
				}
			}
			refs, l1, l2, llc := h.Stats()
			if refs != ref.refs || l1 != ref.l1Hits || l2 != ref.l2Hits || llc != ref.llcRefs {
				t.Errorf("Stats = (%d,%d,%d,%d), reference (%d,%d,%d,%d)",
					refs, l1, l2, llc, ref.refs, ref.l1Hits, ref.l2Hits, ref.llcRefs)
			}
		})
	}
}

// TestFilterStreamAllocsIndependentOfLength pins the zero-allocations-
// per-reference property of the private hierarchy: quadrupling the trace
// may add stream-builder segments (a handful, growing geometrically) but
// nothing that scales with the reference count.
func TestFilterStreamAllocsIndependentOfLength(t *testing.T) {
	mk := func(n int) []trace.Access {
		rnd := rng.New(3)
		accs := make([]trace.Access, n)
		for i := range accs {
			accs[i] = trace.Access{
				Core:  uint8(rnd.Intn(8)),
				Write: rnd.Bool(0.3),
				PC:    rnd.Uint64n(64),
				Addr:  trace.Addr(rnd.Uint64n(1<<16) << trace.BlockShift),
			}
		}
		return accs
	}
	allocs := func(accs []trace.Access) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, err := FilterStream(trace.NewSliceReader(accs), DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(mk(50_000)), allocs(mk(200_000))
	if long-short > 8 {
		t.Errorf("FilterStream allocations grow with the trace: %v for 50k references, %v for 200k", short, long)
	}
}

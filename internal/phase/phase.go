// Package phase analyzes the *temporal* structure of sharing: the paper
// concludes that fill-time sharing predictors fail because a block's
// sharing behaviour is phased — the same address (and the same fill site)
// is actively shared in some program phases and private in others, so
// history indexed by address or PC goes stale.
//
// Analyze quantifies exactly that: it splits the LLC reference stream
// into fixed windows, classifies every block as shared or private *per
// window* (≥ 2 distinct cores touching it within the window), and
// measures how stable that status is from one active window to the next.
// A high flip rate is the direct mechanistic explanation for the F7/F8
// negative results.
package phase

import (
	"fmt"
	"math/bits"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// DefaultWindows is the number of analysis windows when the caller does
// not choose one: fine enough to see phase changes, coarse enough that a
// window spans many residencies.
const DefaultWindows = 16

// blockHistory accumulates one block's per-window behaviour. Windows are
// capped at 64 so the histories are two machine words.
type blockHistory struct {
	active uint64 // bit w: block touched in window w
	shared uint64 // bit w: block shared in window w
}

// coreMasks is one block's set of cores touching it in the current
// window, one bit per core.
type coreMasks struct{ lo, hi uint64 }

// Result summarizes one analysis.
type Result struct {
	Windows    int
	WindowSize int // stream accesses per window (last window may be larger)

	// Per-window population: blocks touched, and the subset shared.
	ActiveBlocks []uint64
	SharedBlocks []uint64

	// Transition statistics over consecutive windows in which a block
	// was active: Persist counts same-status pairs, Flip counts
	// shared↔private changes. Flip/(Flip+Persist) is the phase
	// instability that defeats history predictors.
	Persist uint64
	Flip    uint64

	// Block-level classification over blocks active in ≥ 2 windows.
	AlwaysShared  uint64
	NeverShared   uint64
	Mixed         uint64
	SingleWindow  uint64 // blocks seen in only one window (unclassifiable)
	DistinctTotal uint64
}

// FlipRate returns Flip/(Flip+Persist), or 0 with no transitions.
func (r *Result) FlipRate() float64 {
	if r.Flip+r.Persist == 0 {
		return 0
	}
	return float64(r.Flip) / float64(r.Flip+r.Persist)
}

// MixedFraction returns the fraction of multi-window blocks whose sharing
// status changes across their lifetime.
func (r *Result) MixedFraction() float64 {
	multi := r.AlwaysShared + r.NeverShared + r.Mixed
	if multi == 0 {
		return 0
	}
	return float64(r.Mixed) / float64(multi)
}

// Analyze splits stream into windows windows (clamped to [1, 64]) and
// computes the sharing-phase statistics.
func Analyze(stream []cache.AccessInfo, windows int) (*Result, error) {
	if windows < 1 || windows > 64 {
		return nil, fmt.Errorf("phase: window count %d outside [1,64]", windows)
	}
	if len(stream) == 0 {
		return &Result{Windows: windows, ActiveBlocks: make([]uint64, windows), SharedBlocks: make([]uint64, windows)}, nil
	}
	winSize := len(stream) / windows
	if winSize == 0 {
		winSize = 1
	}

	res := &Result{
		Windows:      windows,
		WindowSize:   winSize,
		ActiveBlocks: make([]uint64, windows),
		SharedBlocks: make([]uint64, windows),
	}
	// Flat per-BlockID state (cache.EnsureBlockIDs) instead of hashed
	// maps, all from the mem pool: histories for the whole stream, core
	// masks rebuilt each window with the touched IDs listed so the flush
	// doesn't rescan every block.
	stream, numBlocks := cache.EnsureBlockIDs(stream)
	hist := mem.Grab[blockHistory](numBlocks)
	cur := mem.Grab[coreMasks](numBlocks)
	touched := mem.Grab[uint32](numBlocks)[:0] // a window touches each block at most once

	flush := func(w int) {
		for _, id := range touched {
			m := cur[id]
			h := &hist[id]
			h.active |= 1 << w
			if bits.OnesCount64(m.lo)+bits.OnesCount64(m.hi) >= 2 {
				h.shared |= 1 << w
				res.SharedBlocks[w]++
			}
			res.ActiveBlocks[w]++
			cur[id] = coreMasks{}
		}
		touched = touched[:0]
	}

	for w := 0; w < windows; w++ {
		start := w * winSize
		if start >= len(stream) {
			break
		}
		end := start + winSize
		if w == windows-1 || end > len(stream) {
			end = len(stream)
		}
		for i := start; i < end; i++ {
			a := stream[i]
			m := &cur[a.BlockID]
			if m.lo|m.hi == 0 {
				touched = append(touched, a.BlockID)
			}
			if a.Core < 64 {
				m.lo |= 1 << a.Core
			} else {
				m.hi |= 1 << (a.Core - 64)
			}
		}
		flush(w)
	}

	// Transition and block-level statistics.
	for id := range hist {
		h := &hist[id]
		if h.active == 0 {
			continue
		}
		res.DistinctTotal++
		activeWindows := bits.OnesCount64(h.active)
		if activeWindows < 2 {
			res.SingleWindow++
			continue
		}
		var prevShared, have bool
		allShared, noneShared := true, true
		for w := 0; w < 64; w++ {
			if h.active>>w&1 == 0 {
				continue
			}
			shared := h.shared>>w&1 == 1
			if shared {
				noneShared = false
			} else {
				allShared = false
			}
			if have {
				if shared == prevShared {
					res.Persist++
				} else {
					res.Flip++
				}
			}
			prevShared, have = shared, true
		}
		switch {
		case allShared:
			res.AlwaysShared++
		case noneShared:
			res.NeverShared++
		default:
			res.Mixed++
		}
	}
	mem.Release(hist)
	mem.Release(cur)
	mem.Release(touched)
	return res, nil
}

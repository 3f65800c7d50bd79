package workloads

import (
	"fmt"

	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// mixSlotShift places each mix slot's address space above the region
// bits (regions occupy block-number bits up to ~42), so the co-scheduled
// programs can never alias.
const mixSlotShift = 44

// Mix builds a *multiprogrammed* workload: each model runs single-threaded,
// pinned to its own core, in a disjoint address space — the co-scheduled
// independent programs that most LLC-replacement proposals of the paper's
// era were evaluated on. By construction nothing is ever shared, which is
// exactly the paper's motivation: policies tuned on such mixes cannot
// exhibit (or reward) sharing-awareness. The M1 experiment runs the
// sharing oracle on mixes and shows ~0 gain.
//
// Mix returns the merged trace reader; MixName derives a display name.
func Mix(models []Model, seed uint64) (trace.Reader, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("workloads: empty mix")
	}
	if len(models) > 128 {
		return nil, fmt.Errorf("workloads: mix of %d programs exceeds 128 cores", len(models))
	}
	master := rng.New(seed ^ 0xA11C)
	streams := make([]trace.Reader, len(models))
	for slot, m := range models {
		m.Threads = 1 // single-threaded instance
		// Pinned to core slot, addresses moved into the slot's own space.
		offset := trace.Addr(uint64(slot) << (mixSlotShift + trace.BlockShift))
		r, err := m.generate(seed+uint64(slot)*1e6, uint8(slot), offset)
		if err != nil {
			return nil, fmt.Errorf("workloads: mix slot %d (%s): %w", slot, m.Name, err)
		}
		streams[slot] = r
	}
	return trace.NewInterleaver(streams, 48, master.Split()), nil
}

// MixBlockIndex numbers the blocks of a Mix of models densely and
// injectively in [0, span): a slot's blocks follow the earlier slots'
// footprints, each numbered by its single-threaded model's BlockIndex.
func MixBlockIndex(models []Model) (index func(block uint64) uint32, span int) {
	slots := make([]Model, len(models))
	bases := make([]uint32, len(models))
	for slot, m := range models {
		m.Threads = 1
		slots[slot], bases[slot] = m, uint32(span)
		span += m.FootprintBlocks()
	}
	return func(block uint64) uint32 {
		slot := block >> mixSlotShift
		return bases[slot] + slots[slot].BlockIndex(block&(1<<mixSlotShift-1))
	}, span
}

// MixName derives a display name for a mix.
func MixName(models []Model) string {
	if len(models) == 0 {
		return "mix()"
	}
	name := "mix(" + models[0].Name
	for _, m := range models[1:] {
		name += "+" + m.Name
	}
	return name + ")"
}

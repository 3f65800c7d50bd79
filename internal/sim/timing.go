package sim

// Timing is a deliberately simple cycle model layered over the functional
// simulation: every reference pays the latency of the level that serves
// it. It turns miss-count deltas into average-memory-access-time (AMAT)
// speedups, the secondary metric replacement papers report. There is no
// overlap/MLP modelling — the numbers are a first-order translation, not
// a performance claim (the paper's own evaluation is miss-count based).

// latency holds per-level access latencies in cycles.
type latency struct {
	L1  uint64 // L1 hit
	L2  uint64 // L2 hit (includes the L1 probe)
	LLC uint64 // LLC hit (includes the private-level probes)
	Mem uint64 // full miss to memory
}

// defaultLatency reflects the paper's era: 4-cycle L1, 12-cycle L2,
// ~40-cycle LLC and 200-cycle memory.
func defaultLatency() latency { return latency{L1: 4, L2: 12, LLC: 38, Mem: 200} }

// cycles computes the total memory-access cycles of one workload run:
// the private-level hits come from the prepared stream, the LLC outcome
// from the policy pass under evaluation.
func (l latency) cycles(st *Stream, llcHits, llcMisses uint64) uint64 {
	return st.L1Hits*l.L1 + st.L2Hits*l.L2 + llcHits*l.LLC + llcMisses*l.Mem
}

// amatSpeedup returns baseCycles/newCycles for one workload: > 1 means
// the new configuration is faster.
func (l latency) amatSpeedup(st *Stream, baseHits, baseMisses, newHits, newMisses uint64) float64 {
	nc := l.cycles(st, newHits, newMisses)
	if nc == 0 {
		return 0
	}
	return float64(l.cycles(st, baseHits, baseMisses)) / float64(nc)
}

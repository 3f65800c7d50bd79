package sim

import (
	"testing"

	"sharellc/internal/core"
)

func TestLatencyCycles(t *testing.T) {
	st := &Stream{L1Hits: 10, L2Hits: 5}
	l := latency{L1: 1, L2: 2, LLC: 3, Mem: 4}
	if got := l.cycles(st, 7, 2); got != 10*1+5*2+7*3+2*4 {
		t.Errorf("Cycles = %d", got)
	}
}

func TestAMATSpeedupDirection(t *testing.T) {
	st := &Stream{L1Hits: 1000, L2Hits: 100}
	l := defaultLatency()
	// Converting 50 misses into hits must speed things up.
	s := l.amatSpeedup(st, 100, 100, 150, 50)
	if s <= 1 {
		t.Errorf("speedup = %v, want > 1", s)
	}
	// Identity: no change → exactly 1.
	if got := l.amatSpeedup(st, 100, 100, 100, 100); got != 1 {
		t.Errorf("identity speedup = %v", got)
	}
	// Degenerate zero-cycle run guards against division by zero.
	empty := &Stream{}
	if got := (latency{}).amatSpeedup(empty, 0, 0, 0, 0); got != 0 {
		t.Errorf("zero-cycle speedup = %v", got)
	}
}

func TestOracleStudyReportsAMAT(t *testing.T) {
	s := testSuite(t)
	rows, err := s.OracleStudy(tSize, tWays, []string{"lru"}, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AMATSpeedup <= 0 {
			t.Errorf("%s: AMAT speedup %v", r.Workload, r.AMATSpeedup)
		}
		// Positive miss reduction implies speedup >= 1 and vice versa.
		if r.Reduction > 0 && r.AMATSpeedup < 1 {
			t.Errorf("%s: reduction %v but speedup %v", r.Workload, r.Reduction, r.AMATSpeedup)
		}
		if r.Reduction < 0 && r.AMATSpeedup > 1 {
			t.Errorf("%s: regression %v but speedup %v", r.Workload, r.Reduction, r.AMATSpeedup)
		}
	}
}

// Package predictor implements the paper's two realistic history-based
// fill-time sharing predictors:
//
//   - the address-indexed predictor, which bets that a block that was
//     shared during its previous LLC residency will be shared again, and
//   - the PC-indexed predictor, which bets that fills triggered by the
//     same instruction produce blocks with the same sharing behaviour.
//
// Both are tables of saturating counters trained at residency end (the
// natural hardware training point: the LLC knows the outcome when the
// block is evicted) and consulted at fill time. The paper's conclusion —
// which the F7/F8 experiments reproduce — is that neither history source
// correlates strongly enough with active sharing phases to recover more
// than a fraction of the oracle's gain.
//
// Both studies carry their predictors inside the replay lane's policy,
// so no lane is hooked. An F7/A2 lane
// (ScoredLane) scores every predictor at once against an untouched
// base: no predictor steers, so all of them see the same residencies.
// An F8 lane is a core.Lane hinted by one predictor (Driven), whose
// core.LaneHinter methods predict and train; over an LRU base (up to 64
// ways) the lane runs core's protected-LRU batch kernel, over other
// bases the generic batch loop, and both make the same calls in the same
// order.
package predictor

import (
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
)

// Predictor is a fill-time sharing predictor: Predict is consulted when a
// block is filled into the LLC, Train when a residency ends with a known
// outcome — the residency's block, the PC of its fill and whether two or
// more cores touched it.
type Predictor interface {
	Name() string
	Predict(a cache.AccessInfo) bool
	Train(block, fillPC uint64, shared bool)
}

// Config sizes a table predictor.
type Config struct {
	// TableBits is log2 of the number of counters (untagged,
	// direct-mapped, as cheap hardware would build it).
	TableBits int
}

// Every table counts in 2-bit saturating counters and predicts "shared"
// from the weakly-taken value 2 up; only the table size varies (A2).
const (
	counterMax = 1<<2 - 1
	threshold  = 2
)

// DefaultConfig matches a modest hardware budget: 16K counters.
func DefaultConfig() Config {
	return Config{TableBits: 14}
}

// validate reports whether the configuration is usable.
func (c Config) validate() error {
	if c.TableBits < 1 || c.TableBits > 28 {
		return fmt.Errorf("predictor: TableBits %d outside [1,28]", c.TableBits)
	}
	return nil
}

// table is the shared machinery: saturating counters with hysteresis
// (increment on shared outcome, decrement on private outcome).
type table struct {
	counters []uint8
	mask     uint64
}

func newTable(cfg Config) (*table, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &table{
		counters: make([]uint8, 1<<cfg.TableBits),
		mask:     uint64(1<<cfg.TableBits - 1),
	}
	// Initialize counters just below threshold so a single shared
	// outcome flips the entry to predicting shared.
	for i := range t.counters {
		t.counters[i] = threshold - 1
	}
	return t, nil
}

func (t *table) index(key uint64) uint64 {
	// Fibonacci hashing spreads low-entropy keys across the table.
	return (key * 0x9E3779B97F4A7C15) >> 32 & t.mask
}

func (t *table) predict(key uint64) bool {
	return t.counters[t.index(key)] >= threshold
}

func (t *table) train(key uint64, shared bool) {
	i := t.index(key)
	if shared {
		if t.counters[i] < counterMax {
			t.counters[i]++
		}
	} else if t.counters[i] > 0 {
		t.counters[i]--
	}
}

// Address is the block-address-indexed predictor: its key is the block
// number, so it learns per-datum sharing history.
type Address struct{ t *table }

// NewAddress builds an address-indexed predictor.
func NewAddress(cfg Config) (*Address, error) {
	t, err := newTable(cfg)
	if err != nil {
		return nil, err
	}
	return &Address{t: t}, nil
}

// Name implements Predictor.
func (p *Address) Name() string { return "addr" }

// Predict implements Predictor.
func (p *Address) Predict(a cache.AccessInfo) bool { return p.t.predict(a.Block) }

// Train implements Predictor.
func (p *Address) Train(block, _ uint64, shared bool) { p.t.train(block, shared) }

// PC is the program-counter-indexed predictor: its key is the SHiP-style
// signature of the fill-triggering instruction, so it learns per-code-site
// sharing history.
type PC struct{ t *table }

// NewPC builds a PC-indexed predictor.
func NewPC(cfg Config) (*PC, error) {
	t, err := newTable(cfg)
	if err != nil {
		return nil, err
	}
	return &PC{t: t}, nil
}

// Name implements Predictor.
func (p *PC) Name() string { return "pc" }

// Predict implements Predictor.
func (p *PC) Predict(a cache.AccessInfo) bool {
	return p.t.predict(uint64(policy.Signature(a.PC)))
}

// Train implements Predictor.
func (p *PC) Train(_, fillPC uint64, shared bool) {
	p.t.train(uint64(policy.Signature(fillPC)), shared)
}

// Always predicts every fill shared; Never predicts none. They bracket the
// table predictors in the accuracy study (F7) and expose the base-rate of
// sharing in each workload.
type Always struct{}

// Name implements Predictor.
func (Always) Name() string { return "always" }

// Predict implements Predictor.
func (Always) Predict(cache.AccessInfo) bool { return true }

// Train implements Predictor.
func (Always) Train(uint64, uint64, bool) {}

// Never is the complement of Always.
type Never struct{}

// Name implements Predictor.
func (Never) Name() string { return "never" }

// Predict implements Predictor.
func (Never) Predict(cache.AccessInfo) bool { return false }

// Train implements Predictor.
func (Never) Train(uint64, uint64, bool) {}

package predictor

import (
	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/mem"
)

// Driven is the policy of a predictor-driven lane (experiment F8): a
// core.Protector whose fill hints come from a realistic predictor that the
// lane itself consults and trains online from its own residency outcomes.
// Prediction and training travel with the policy, not through replay
// hooks, so the lane is hook-free: its stream-order policy pass calls
// Hit, Victim and Fill in exactly the sequential walk's order, which is
// the order the predictor must see.
//
// Per miss the calls follow the hooked lane (HooksFor over a Protector)
// one for one: the miss is predicted once, before any training (in
// Victim when the set is full, else in Fill), and Victim trains the
// predictor on the residency it ends.
//
// Residencies still alive at stream end are never trained on; nothing
// reads the predictor after the replay, so that changes no output.
//
// Over an LRU base NewBatchKernel binds core's protected-LRU kernel,
// which makes the same calls through the LaneHinter methods: LaneHit on
// a hit; LaneHint, then the victim choice, LaneEvict and LaneFill on a
// miss.
type Driven struct {
	*core.Protector
	pred Predictor

	ways  int
	lines []drivenLine // one per (set, way): the open residency there

	// hint is the current miss's prediction; predicted reports that
	// Victim already made it for this miss.
	hint      bool
	predicted bool
}

// drivenLine is what training needs of one open residency.
type drivenLine struct {
	block    uint64
	fillPC   uint64
	fillCore uint8
	shared   bool // a core other than fillCore hit it
}

// NewDriven wraps base in a core.Protector under opts whose fills are
// hinted by pred. pred must belong to this lane alone.
func NewDriven(base cache.Policy, opts core.Options, pred Predictor) *Driven {
	return &Driven{Protector: core.NewProtectorOpts(base, opts), pred: pred}
}

// Attach implements cache.Policy.
func (d *Driven) Attach(sets, ways int) {
	d.Protector.Attach(sets, ways)
	d.ways = ways
	d.lines = mem.Grab[drivenLine](sets * ways)
}

// Release implements cache.Releaser.
func (d *Driven) Release() {
	mem.Release(d.lines)
	d.lines = nil
	d.Protector.Release()
}

// Hit implements cache.Policy.
func (d *Driven) Hit(set, way int, a *cache.AccessInfo) {
	d.LaneHit(uint32(set*d.ways+way), a)
	d.Protector.Hit(set, way, a)
}

// Victim implements cache.Policy: predict the miss, choose the victim,
// then train on the residency it ends.
func (d *Driven) Victim(set int, a *cache.AccessInfo) int {
	d.hint = d.LaneHint(a)
	d.predicted = true
	v := d.Protector.Victim(set, a)
	d.LaneEvict(uint32(set*d.ways + v))
	return v
}

// Fill implements cache.Policy.
func (d *Driven) Fill(set, way int, a *cache.AccessInfo) {
	if !d.predicted {
		d.hint = d.LaneHint(a)
	}
	d.predicted = false
	d.FillHinted(set, way, a, d.hint)
	d.LaneFill(uint32(set*d.ways+way), a)
}

// NewBatchKernel implements cache.batchPolicy: the Protector's
// protected-LRU kernel over an LRU base, driven by the lane's predictor;
// the generic loop (nil) otherwise.
func (d *Driven) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	return d.LRUKernel(c, d)
}

// LaneHit implements core.LaneHinter: mark the residency shared when a
// core other than its filler hits it.
func (d *Driven) LaneHit(li uint32, a *cache.AccessInfo) {
	if ln := &d.lines[li]; a.Core != ln.fillCore {
		ln.shared = true
	}
}

// LaneHint implements core.LaneHinter: predict the miss.
func (d *Driven) LaneHint(a *cache.AccessInfo) bool {
	return d.pred.Predict(*a)
}

// LaneEvict implements core.LaneHinter: train on the residency that ends.
func (d *Driven) LaneEvict(li uint32) {
	ln := &d.lines[li]
	d.pred.Train(ln.block, ln.fillPC, ln.shared)
}

// LaneFill implements core.LaneHinter: open the new residency.
func (d *Driven) LaneFill(li uint32, a *cache.AccessInfo) {
	d.lines[li] = drivenLine{block: a.Block, fillPC: a.PC, fillCore: a.Core}
}

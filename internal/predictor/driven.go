package predictor

import (
	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// Driven is the hint source of a predictor-driven lane (experiment F8):
// it asks a realistic predictor for each miss's hint and trains it
// online on the residencies the lane itself ends. The
// lane is a core.Lane over Driven, hook-free: it makes Driven's calls in
// the sequential walk's order, which is the order the predictor must
// see — the miss is predicted once, before any training, and the
// residency the victim ends trains the predictor, as a hooked lane
// (HooksFor over a Protector) does one for one.
//
// Residencies still alive at stream end are never trained on; nothing
// reads the predictor after the replay, so that changes no output.
type Driven struct {
	pred  Predictor
	lines []drivenLine // one per (set, way): the open residency there
}

// drivenLine is what training needs of one open residency.
type drivenLine struct {
	block    uint64
	fillPC   uint64
	fillCore uint8
	shared   bool // a core other than fillCore hit it
}

// NewDriven returns the hint source of a lane driven by pred. pred must
// belong to this lane alone.
func NewDriven(pred Predictor) *Driven { return &Driven{pred: pred} }

// Attach sizes the per-line state; core.Lane calls it.
func (d *Driven) Attach(sets, ways int) { d.lines = mem.Grab[drivenLine](sets * ways) }

// Release implements cache.Releaser: the lines, and the predictor's
// state when it is a cache.Releaser (the coherence column), go back to
// the mem pool.
func (d *Driven) Release() {
	mem.Release(d.lines)
	d.lines = nil
	if r, ok := d.pred.(cache.Releaser); ok {
		r.Release()
	}
}

// LaneHit implements core.NewLane's hinter: mark the residency shared
// when a core other than its filler hits it.
func (d *Driven) LaneHit(li uint32, a *cache.AccessInfo) {
	if ln := &d.lines[li]; a.Core != ln.fillCore {
		ln.shared = true
	}
}

// LaneHint implements core.NewLane's hinter: predict the miss.
func (d *Driven) LaneHint(a *cache.AccessInfo) bool {
	return d.pred.Predict(*a)
}

// LaneEvict implements core.NewLane's hinter: train on the residency
// that ends.
func (d *Driven) LaneEvict(li uint32) {
	ln := &d.lines[li]
	d.pred.Train(ln.block, ln.fillPC, ln.shared)
}

// LaneFill implements core.NewLane's hinter: open the new residency.
func (d *Driven) LaneFill(li uint32, a *cache.AccessInfo) {
	d.lines[li] = drivenLine{block: a.Block, fillPC: a.PC, fillCore: a.Core}
}

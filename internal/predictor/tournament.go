package predictor

import (
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
)

// Tournament combines the address- and PC-indexed predictors with a
// per-signature chooser, the classic two-level scheme from branch
// prediction. It is this repository's probe of the paper's closing
// question — whether *combinations* of architectural features recover
// enough accuracy — and the F7/A2 experiments show it helps only
// marginally: both components miss for the same underlying reason (the
// sharing phase of a block is not a stable function of its address or
// fill site), so arbitrating between them cannot manufacture signal.
type Tournament struct {
	addr    *Address
	pc      *PC
	chooser *table // counts "addr was right more recently" per fill-PC signature

	// lastAddr/lastPC remember each component's fill-time prediction for
	// the blocks currently in flight, keyed like hardware would: by a
	// small direct-mapped table over the block address. Collisions only
	// blur chooser training, never correctness.
	inflight     []inflightPred
	inflightMask uint64
}

// inflightPred records the component predictions made at fill time.
type inflightPred struct {
	block    uint64
	addrSaid bool
	pcSaid   bool
	valid    bool
}

// NewTournament builds a tournament over two tables of cfg geometry plus
// a chooser of the same size.
func NewTournament(cfg Config) (*Tournament, error) {
	a, err := NewAddress(cfg)
	if err != nil {
		return nil, err
	}
	p, err := NewPC(cfg)
	if err != nil {
		return nil, err
	}
	ch, err := newTable(cfg)
	if err != nil {
		return nil, err
	}
	const inflightBits = 12
	return &Tournament{
		addr:         a,
		pc:           p,
		chooser:      ch,
		inflight:     make([]inflightPred, 1<<inflightBits),
		inflightMask: 1<<inflightBits - 1,
	}, nil
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "tournament" }

// Predict implements Predictor: consult both components, let the chooser
// (indexed by the fill PC signature) arbitrate, and remember both
// component opinions for training.
func (t *Tournament) Predict(a cache.AccessInfo) bool {
	addrSaid := t.addr.Predict(a)
	pcSaid := t.pc.Predict(a)
	slot := &t.inflight[a.Block&t.inflightMask]
	*slot = inflightPred{block: a.Block, addrSaid: addrSaid, pcSaid: pcSaid, valid: true}
	if t.chooser.predict(uint64(policy.Signature(a.PC))) {
		return addrSaid
	}
	return pcSaid
}

// Train implements Predictor: train both components on the outcome, and
// train the chooser toward whichever component was right (no update when
// they agree or when the in-flight record was overwritten).
func (t *Tournament) Train(block, fillPC uint64, shared bool) {
	t.addr.Train(block, fillPC, shared)
	t.pc.Train(block, fillPC, shared)
	slot := &t.inflight[block&t.inflightMask]
	if !slot.valid || slot.block != block || slot.addrSaid == slot.pcSaid {
		return
	}
	key := uint64(policy.Signature(fillPC))
	// chooser counter up = "prefer addr".
	t.chooser.train(key, slot.addrSaid == shared)
	slot.valid = false
}

// String aids debugging.
func (t *Tournament) String() string {
	return fmt.Sprintf("tournament(%s,%s)", t.addr.Name(), t.pc.Name())
}

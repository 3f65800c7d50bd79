package predictor

import (
	"testing"

	"sharellc/internal/cache"
)

func TestTournamentConstruction(t *testing.T) {
	tr, err := NewTournament(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "tournament" {
		t.Errorf("Name = %q", tr.Name())
	}
	if tr.String() == "" {
		t.Error("empty String()")
	}
	if _, err := NewTournament(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestTournamentPrefersTheRightComponent(t *testing.T) {
	// Construct a case where the address component is reliable and the
	// PC component is useless: every block keeps a stable sharing role,
	// but all fills come from one PC so the PC table is a coin toss.
	tr, err := NewTournament(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const pc = 0x4000
	// Train: even blocks shared, odd private, all from the same PC.
	for round := 0; round < 50; round++ {
		for b := uint64(0); b < 32; b++ {
			tr.Predict(cache.AccessInfo{Block: b, PC: pc})
			if b%2 == 0 {
				tr.Train(b, pc, true)
			} else {
				tr.Train(b, pc, false)
			}
		}
	}
	right := 0
	for b := uint64(0); b < 32; b++ {
		got := tr.Predict(cache.AccessInfo{Block: b, PC: pc})
		if got == (b%2 == 0) {
			right++
		}
	}
	if right < 28 {
		t.Errorf("tournament correct on %d/32 stable blocks; chooser failed to pick the address component", right)
	}
}

func TestTournamentAgreementNeedsNoChooser(t *testing.T) {
	tr, err := NewTournament(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Components agree (both cold → both predict private): Train with a
	// matching outcome must not panic or corrupt state.
	tr.Predict(cache.AccessInfo{Block: 7, PC: 0x10})
	tr.Train(7, 0x10, false)
	if tr.Predict(cache.AccessInfo{Block: 7, PC: 0x10}) {
		t.Error("agreed-private block predicted shared")
	}
}

func TestTournamentEndToEnd(t *testing.T) {
	stream := mixedStream(20000)
	tr, err := NewTournament(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := evaluate(t, stream, tr)
	if ps.Total() == 0 {
		t.Fatal("no residencies classified")
	}
	if acc := ps.Accuracy(); acc < 0.7 {
		t.Errorf("tournament accuracy %.2f on history-consistent workload", acc)
	}
	// And it must drive replacement without error.
	tr2, err := NewTournament(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pred := &counted{Predictor: tr2}
	if res, _ := drive(t, stream, pred); uint64(pred.predicts) != res.Misses || pred.trains == 0 {
		t.Errorf("driven tournament made %d predictions for %d misses and %d trainings", pred.predicts, res.Misses, pred.trains)
	}
}

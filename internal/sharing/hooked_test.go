package sharing

import (
	"fmt"
	"reflect"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
)

// hookEvent is one callback of a hooked lane: a PredictShared call at a
// stream index, or an OnResidencyEnd with the closed residency.
type hookEvent struct {
	predict int32 // stream index asked about; -1 for a residency end
	end     Residency
}

// loggedHooks returns hooks that append every callback to log. The
// verdict is a fixed function of the access, so a protector base sees
// both answers.
func loggedHooks(log *[]hookEvent) Hooks {
	return Hooks{
		PredictShared: func(a cache.AccessInfo) bool {
			*log = append(*log, hookEvent{predict: a.Index})
			return (a.Block^uint64(a.Core))%3 == 0
		},
		OnResidencyEnd: func(r Residency) { *log = append(*log, hookEvent{predict: -1, end: r}) },
	}
}

// TestReplayMultiHookedLanes holds hooked lanes — over LRU, DRRIP and a
// core.Protector over LRU, at 8, 16 and 64 ways, fused into one
// ReplayMulti call — to the reference walk at every prefix. Each lane's
// Result must equal the reference's, and so must its whole callback log:
// every PredictShared index and every OnResidencyEnd residency in order,
// the stream-end survivors included. The protector's counters must match
// too, which shows the verdicts reached its FillHinted.
func TestReplayMultiHookedLanes(t *testing.T) {
	bases := []struct {
		name string
		new  func(prot **core.Protector) cache.Policy
	}{
		{"lru", func(**core.Protector) cache.Policy { return &cache.LRU{} }},
		{"drrip", func(**core.Protector) cache.Policy { return catalogued(t, "drrip", 3)() }},
		{"protector", func(prot **core.Protector) cache.Policy {
			*prot = core.NewProtectorOpts(&cache.LRU{}, core.Options{Strength: core.Full})
			return *prot
		}},
	}
	type hookedLane struct {
		at            string
		ways          int
		base          int
		log, refLog   []hookEvent
		prot, refProt *core.Protector
	}
	eachPrefix(synthStream(30000, 3000, 8, 19), func(stream []cache.AccessInfo) {
		var lanes []*hookedLane
		var configs []LLCConfig
		for _, ways := range []int{8, 16, 64} {
			for bi, b := range bases {
				l := &hookedLane{at: fmt.Sprintf("%s @ %d ways, len %d", b.name, ways, len(stream)), ways: ways, base: bi}
				lanes = append(lanes, l)
				configs = append(configs, LLCConfig{Size: 64 * cache.KB, Ways: ways, Hooks: loggedHooks(&l.log),
					NewPolicy: func() cache.Policy { return b.new(&l.prot) }})
			}
		}
		got, err := ReplayMulti(stream, configs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lanes {
			ref := LLCConfig{Size: 64 * cache.KB, Ways: l.ways, Hooks: loggedHooks(&l.refLog),
				NewPolicy: func() cache.Policy { return bases[l.base].new(&l.refProt) }}
			want, err := seqReplay(stream, ref, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s: hooked lane differs from the reference\nengine:    %+v\nreference: %+v", l.at, got[i], want)
			}
			if len(l.log) != len(l.refLog) {
				t.Errorf("%s: %d callbacks, reference %d", l.at, len(l.log), len(l.refLog))
			}
			for k := range min(len(l.log), len(l.refLog)) {
				if l.log[k] != l.refLog[k] {
					t.Errorf("%s: callback %d is %+v, reference %+v", l.at, k, l.log[k], l.refLog[k])
					break
				}
			}
			if l.prot != nil && l.prot.Stats() != l.refProt.Stats() {
				t.Errorf("%s: protector stats %+v, reference %+v", l.at, l.prot.Stats(), l.refProt.Stats())
			}
		}
	})
}

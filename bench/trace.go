package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one timed interval at a layer boundary. The name's prefix up
// to the first '.' is the layer. Spans are held in memory and written out
// when the run ends.
type span struct {
	ID     int
	Parent int // 0 = root
	Tid    int // trace row: 0 for the main goroutine, k for pool worker k
	Name   string
	Start  time.Duration // since the tracer was made
	End    time.Duration
	Counts map[string]float64
}

// tracer records spans. A nil *tracer records nothing, so untraced runs
// pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	runID string
	t0    time.Time
	spans []*span
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// begin opens a span under parent (nil for a root span).
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Name: name, Start: now}
	if parent != nil {
		s.Parent, s.Tid = parent.ID, parent.Tid
	}
	t.spans = append(t.spans, s)
	return s
}

// end closes s and attaches the counts measured at the same boundary.
func (t *tracer) end(s *span, counts map[string]float64) {
	if t == nil || s == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	s.End, s.Counts = now, counts
	t.mu.Unlock()
}

// add records a span timed elsewhere, such as on the daemon's clock.
func (t *tracer) add(parent *span, name string, start, end time.Time) *span {
	if t == nil {
		return nil
	}
	s := t.begin(parent, name)
	t.mu.Lock()
	s.Start, s.End = start.Sub(t.t0), end.Sub(t.t0)
	t.mu.Unlock()
	return s
}

// costPerSpan measures what one begin/end pair costs, on a scratch tracer.
func costPerSpan() time.Duration {
	const n = 20000
	t := newTracer("cost")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(nil, "x"), nil)
	}
	return time.Since(t0) / n
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the time its spans cover minus the time
// their direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0 // children ran in parallel and cover more than the parent's wall
		}
		out[layerOf(s.Name)] += self
	}
	return out
}

// summary prints self time per layer and each layer's share of the total.
func (t *tracer) summary(w io.Writer) {
	self := t.selfTimes()
	var total time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "%-14s %12s %8s\n", "layer", "self_s", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "%-14s %12.3f %7.1f%%\n", l, self[l].Seconds(), 100*float64(self[l])/float64(total))
	}
}

// write stores the spans in Chrome trace-event format: open the file in
// chrome://tracing or ui.perfetto.dev. Pool workers get their own rows.
func (t *tracer) write(path string) error {
	type event struct {
		Name string             `json:"name"`
		Cat  string             `json:"cat"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		Args map[string]float64 `json:"args,omitempty"`
		ID   int                `json:"id"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]float64{"parent": float64(s.Parent)}
		for k, v := range s.Counts {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Pid: 1, Tid: s.Tid, ID: s.ID,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": map[string]string{"run_id": t.runID}})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package trace

import (
	"errors"
	"fmt"
	"testing"

	"sharellc/internal/rng"
)

// refInterleaver is the Interleaver as it was when it produced one access
// per call: the scheduling loop and pick, verbatim. ReadBatch and the Next
// built on it must reproduce its output and its draws from the Source.
type refInterleaver struct {
	streams []Reader
	live    []bool
	nLive   int
	burst   int
	rnd     *rng.Source
	cur     int
	left    int
	err     error
}

func newRefInterleaver(streams []Reader, burst int, rnd *rng.Source) *refInterleaver {
	if burst < 1 {
		burst = 1
	}
	il := &refInterleaver{streams: streams, live: make([]bool, len(streams)), nLive: len(streams), burst: burst, rnd: rnd, cur: -1}
	for i := range il.live {
		il.live[i] = true
	}
	return il
}

func (il *refInterleaver) Next() (Access, bool) {
	for il.nLive > 0 {
		if il.cur < 0 || il.left <= 0 || !il.live[il.cur] {
			il.pick()
			if il.cur < 0 {
				break
			}
		}
		a, ok := il.streams[il.cur].Next()
		if !ok {
			if err := il.streams[il.cur].Err(); err != nil && il.err == nil {
				il.err = err
			}
			il.live[il.cur] = false
			il.nLive--
			il.cur = -1
			continue
		}
		il.left--
		return a, true
	}
	return Access{}, false
}

func (il *refInterleaver) pick() {
	il.cur = -1
	if il.nLive == 0 {
		return
	}
	k := il.rnd.Intn(il.nLive)
	for i, alive := range il.live {
		if !alive {
			continue
		}
		if k == 0 {
			il.cur = i
			break
		}
		k--
	}
	il.left = 1 + il.rnd.Intn(2*il.burst-1)
}

func (il *refInterleaver) Err() error { return il.err }

// nextOnly hides a reader's ReadBatch, forcing the package-level
// ReadBatch onto its one-Next-per-access fallback.
type nextOnly struct{ Reader }

// failingReader yields n accesses and then ends with an error.
type failingReader struct {
	n   int
	err error
}

func (r *failingReader) Next() (Access, bool) {
	if r.n == 0 {
		return Access{}, false
	}
	r.n--
	return Access{Core: 9, Addr: Addr(r.n)}, true
}

func (r *failingReader) Err() error {
	if r.n == 0 {
		return r.err
	}
	return nil
}

// drain reads r to its end by the given pattern of chunk sizes, cycling;
// a chunk size of 0 stands for one Next call.
func drain(r Reader, pattern []int) []Access {
	var out []Access
	for i := 0; ; i++ {
		size := pattern[i%len(pattern)]
		if size == 0 {
			a, ok := r.Next()
			if !ok {
				return out
			}
			out = append(out, a)
			continue
		}
		buf := make([]Access, size)
		n := ReadBatch(r, buf)
		out = append(out, buf[:n]...)
		if n < size {
			return out
		}
	}
}

func TestInterleaverReadBatchMatchesPerAccessReference(t *testing.T) {
	errBoom := errors.New("boom")
	// Stream lengths: burst 1 ends every stream exactly at a burst end (a
	// burst is always one access), the empty stream dies on its first pick,
	// and the failing stream must surface its error either way.
	mk := func(batchable bool) []Reader {
		var rs []Reader
		for c, n := range []int{50, 0, 137, 1, 64, 1000} {
			accs := make([]Access, n)
			for i := range accs {
				accs[i] = Access{Core: uint8(c), PC: uint64(i), Addr: Addr(i * BlockSize), Write: i%3 == 0}
			}
			if batchable {
				rs = append(rs, NewSliceReader(accs))
			} else {
				rs = append(rs, nextOnly{NewSliceReader(accs)})
			}
		}
		return append(rs, &failingReader{n: 20, err: errBoom})
	}
	patterns := [][]int{{1}, {7}, {4096}, {0, 7, 0, 0, 1, 33}, {0}}
	for _, burst := range []int{1, 2, 8, 48} {
		for _, batchable := range []bool{true, false} {
			refRnd := rng.New(11)
			ref := newRefInterleaver(mk(false), burst, refRnd)
			want, err := Collect(ref)
			if !errors.Is(err, errBoom) {
				t.Fatalf("reference error = %v", err)
			}
			for _, pattern := range patterns {
				name := fmt.Sprintf("burst=%d/batchable=%v/pattern=%v", burst, batchable, pattern)
				il := NewInterleaver(mk(batchable), burst, rng.New(11))
				got := drain(il, pattern)
				if len(got) != len(want) {
					t.Fatalf("%s: %d accesses, reference %d", name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: access %d = %v, reference %v", name, i, got[i], want[i])
					}
				}
				if !errors.Is(il.Err(), errBoom) {
					t.Errorf("%s: Err = %v, want the failing stream's error", name, il.Err())
				}
				if _, ok := il.Next(); ok || il.ReadBatch(make([]Access, 4)) != 0 {
					t.Errorf("%s: drained interleaver produced more accesses", name)
				}
			}
			// The same number of scheduling draws was taken from the Source.
			rnd := rng.New(11)
			drain(NewInterleaver(mk(batchable), burst, rnd), []int{4096})
			if rnd.Uint64() != refRnd.Uint64() {
				t.Errorf("burst=%d batchable=%v: batched interleaver left its Source in a different state", burst, batchable)
			}
		}
	}
}

func TestSliceReaderReadBatch(t *testing.T) {
	accs := make([]Access, 10)
	for i := range accs {
		accs[i].PC = uint64(i)
	}
	r := NewSliceReader(accs)
	buf := make([]Access, 4)
	if n := r.ReadBatch(buf); n != 4 || buf[3].PC != 3 {
		t.Fatalf("first batch: n=%d last=%v", n, buf[3])
	}
	if a, ok := r.Next(); !ok || a.PC != 4 {
		t.Fatalf("Next after ReadBatch = %v, %v", a, ok)
	}
	if n := r.ReadBatch(buf); n != 4 || buf[0].PC != 5 {
		t.Fatalf("second batch: n=%d first=%v", n, buf[0])
	}
	if n := r.ReadBatch(buf); n != 1 || buf[0].PC != 9 {
		t.Fatalf("short batch: n=%d first=%v", n, buf[0])
	}
	if n := r.ReadBatch(buf); n != 0 {
		t.Fatalf("batch at end of stream: n=%d", n)
	}
}

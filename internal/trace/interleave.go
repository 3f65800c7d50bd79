package trace

import "sharellc/internal/rng"

// Interleaver merges per-thread access streams into a single global order,
// modelling the nondeterministic scheduling of a real CMP. Each step it
// picks a still-live thread and takes a short burst of accesses from it.
//
// Two knobs shape the interleaving:
//
//   - Burst: the mean number of consecutive accesses taken from one thread
//     before switching. Real cores issue runs of references between
//     scheduling points; a burst of 1 gives fine round-robin-like mixing,
//     large bursts approximate coarse time-slicing.
//   - rng: thread choice and burst length are drawn from a seeded Source,
//     so the interleaving is deterministic per seed.
type Interleaver struct {
	streams []Reader
	live    []bool
	nLive   int
	burst   int
	rnd     *rng.Source
	cur     int // stream currently being drained
	left    int // accesses left in the current burst
	err     error
	one     [1]Access // Next's destination; a local would escape per call
}

// NewInterleaver merges streams with mean burst length burst (values < 1
// are treated as 1) using rnd for scheduling decisions.
func NewInterleaver(streams []Reader, burst int, rnd *rng.Source) *Interleaver {
	if burst < 1 {
		burst = 1
	}
	il := &Interleaver{
		streams: streams,
		live:    make([]bool, len(streams)),
		nLive:   len(streams),
		burst:   burst,
		rnd:     rnd,
		cur:     -1,
	}
	for i := range il.live {
		il.live[i] = true
	}
	return il
}

// ReadBatch implements batchReader: it copies whole bursts (or what is
// left of dst) until dst is full or every input stream is exhausted. A
// stream dies when it delivers less than it was asked for, never earlier:
// one that runs dry exactly at a burst end stays eligible for the next
// pick, which is the schedule Next has always produced.
func (il *Interleaver) ReadBatch(dst []Access) int {
	n := 0
	for n < len(dst) && il.nLive > 0 {
		if il.cur < 0 || il.left <= 0 {
			il.pick()
		}
		want := min(il.left, len(dst)-n)
		got := ReadBatch(il.streams[il.cur], dst[n:n+want])
		n += got
		il.left -= got
		if got < want {
			if err := il.streams[il.cur].Err(); err != nil && il.err == nil {
				il.err = err
			}
			il.live[il.cur] = false
			il.nLive--
			il.cur = -1
		}
	}
	return n
}

// Next implements Reader as a one-access ReadBatch, so there is a single
// scheduling implementation. It returns accesses until every input stream
// is exhausted.
func (il *Interleaver) Next() (Access, bool) {
	if il.ReadBatch(il.one[:]) == 0 {
		return Access{}, false
	}
	return il.one[0], true
}

// pick selects the next live stream (there must be one) and a
// geometric-ish burst length.
func (il *Interleaver) pick() {
	// Choose uniformly among live streams.
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
	// Burst length uniform in [1, 2*burst-1] → mean ≈ burst.
	il.left = 1 + il.rnd.Intn(2*il.burst-1)
}

// Err implements Reader, reporting the first error from any input stream.
func (il *Interleaver) Err() error { return il.err }

package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical outputs in 100 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 {
		t.Error("zero seed produced stuck-at-zero stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("parent and split child produced %d identical outputs", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared-ish sanity check: 10 buckets, 100k draws.
	s := New(99)
	const buckets = 10
	const draws = 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(buckets)]++
	}
	expect := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d count %d too far from expected %.0f", b, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

// mul64ref is the hand-rolled 128-bit multiply Uint64n used before it
// switched to bits.Mul64, kept as the reference for the test below.
func mul64ref(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo32 := t & mask32
	carry := t >> 32
	t = aHi*bLo + carry
	mid1 := t & mask32
	carry = t >> 32
	t = aLo*bHi + mid1
	mid2 := t & mask32
	hi = aHi*bHi + carry + t>>32
	lo = mid2<<32 | lo32
	return hi, lo
}

// TestUint64nSequenceUnchanged replays Lemire's rejection loop over the
// reference multiply and requires Uint64n to consume the same raw draws
// and return the same values, across bounds that exercise the rejection
// branch (n just above a power of two rejects almost half the draws).
func TestUint64nSequenceUnchanged(t *testing.T) {
	bounds := []uint64{1, 2, 3, 7, 10, 1 << 16, 1<<32 + 1, 1<<63 + 1, 1<<64 - 1, 0xDEADBEEFCAFEF00D}
	got, ref := New(42), New(42)
	for i := 0; i < 100000; i++ {
		n := bounds[i%len(bounds)]
		var want uint64
		for {
			hi, lo := mul64ref(ref.Uint64(), n)
			if lo >= n || lo >= -n%n {
				want = hi
				break
			}
		}
		if v := got.Uint64n(n); v != want {
			t.Fatalf("draw %d: Uint64n(%d) = %d, reference %d", i, n, v, want)
		}
	}
	if got.Uint64() != ref.Uint64() {
		t.Fatal("sources diverged: a different number of raw draws was consumed")
	}
}

func TestUint64nNeverGeN(t *testing.T) {
	f := func(seed, n uint64) bool {
		if n == 0 {
			n = 1
		}
		s := New(seed)
		for i := 0; i < 32; i++ {
			if s.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

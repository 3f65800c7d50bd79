package rng

import (
	"math"
	"sort"
	"testing"
)

func TestZipfValidation(t *testing.T) {
	src := New(1)
	if _, err := NewZipf(src, 1, 0); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewZipf(src, -1, 10); err == nil {
		t.Error("negative exponent accepted")
	}
	if _, err := NewZipf(src, math.NaN(), 10); err == nil {
		t.Error("NaN exponent accepted")
	}
	if _, err := NewZipf(nil, 1, 10); err == nil {
		t.Error("nil source accepted")
	}
}

func TestZipfRange(t *testing.T) {
	z, err := NewZipf(New(2), 1.2, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if k := z.Next(); k < 0 || k >= 100 {
			t.Fatalf("sample %d out of range", k)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(New(3), 1.0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 should dominate: with s=1 over 1000 items, P(0) ≈ 1/H(1000)
	// ≈ 13%. Check it lands within a loose band and that the head of the
	// distribution outweighs the tail.
	p0 := float64(counts[0]) / draws
	if p0 < 0.10 || p0 > 0.17 {
		t.Errorf("P(rank 0) = %.3f, want ≈0.13", p0)
	}
	head, tail := 0, 0
	for k, c := range counts {
		if k < 100 {
			head += c
		} else {
			tail += c
		}
	}
	if head < tail {
		t.Errorf("head (top 10%%) drew %d < tail %d; no skew", head, tail)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z, err := NewZipf(New(4), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-draws/10) > 5*math.Sqrt(draws/10) {
			t.Errorf("s=0 bucket %d count %d not uniform", k, c)
		}
	}
}

func TestZipfDeterministic(t *testing.T) {
	mk := func() []int {
		z, err := NewZipf(New(9), 0.8, 50)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 100)
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("zipf draws diverged at %d", i)
		}
	}
}

// TestZipfSearchMatchesSortSearch compares the guided search with the
// whole-table binary search it replaced, on the draws where they could
// part ways: u = 0, every guide-slice boundary and its two neighbours,
// every CDF value and its two neighbours, and 200k random draws per
// table (1.8 million in all).
func TestZipfSearchMatchesSortSearch(t *testing.T) {
	for _, tc := range []struct {
		s float64
		n int
	}{{1.35, 1}, {0, 1}, {1.35, 2}, {0, 7}, {0.8, 1000}, {1.35, 12000}, {0, 4096}, {2.5, 100000}, {0.7, 90000}} {
		z, err := NewZipf(New(1), tc.s, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			if got, want := z.search(u), sort.SearchFloat64s(z.cdf, u); got != want {
				t.Fatalf("s=%v n=%d: search(%v) = %d, sort.SearchFloat64s = %d", tc.s, tc.n, u, got, want)
			}
		}
		around := func(u float64) {
			check(math.Nextafter(u, 0))
			check(u)
			check(math.Nextafter(u, 1))
		}
		buckets := len(z.guide) - 1
		for b := 0; b <= buckets; b++ {
			around(float64(b) / float64(buckets))
		}
		for _, c := range z.cdf {
			around(c)
		}
		src := New(77)
		for i := 0; i < 200_000; i++ {
			check(src.Float64())
		}
	}
}

// TestZipfWithSourceSharesTablesNotDraws: samplers derived with
// WithSource draw what privately built samplers over the same sources
// draw, share the parent's tables, and do not disturb each other.
func TestZipfWithSourceSharesTablesNotDraws(t *testing.T) {
	const s, n = 1.1, 5000
	parent, err := NewZipf(New(10), s, n)
	if err != nil {
		t.Fatal(err)
	}
	var shared, private []*Zipf
	for seed := uint64(10); seed < 14; seed++ {
		p, err := NewZipf(New(seed), s, n)
		if err != nil {
			t.Fatal(err)
		}
		private = append(private, p)
		z := parent
		if seed > 10 {
			z = parent.WithSource(New(seed))
			if &z.cdf[0] != &parent.cdf[0] || &z.guide[0] != &parent.guide[0] {
				t.Fatal("WithSource copied the tables")
			}
		}
		shared = append(shared, z)
	}
	for i := 0; i < 20000; i++ {
		k := i % len(shared) // interleave the samplers
		if got, want := shared[k].Next(), private[k].Next(); got != want {
			t.Fatalf("draw %d of sampler %d: shared %d, private %d", i, k, got, want)
		}
	}
}

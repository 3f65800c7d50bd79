package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Zipf samples from a bounded Zipf (power-law) distribution over
// [0, n): P(k) ∝ 1/(k+1)^s. Workload generators use it for the skewed
// reuse behaviour of real applications — a small hot subset of a region
// receives most of the touches.
//
// The implementation precomputes the CDF once (O(n) memory) and samples
// by inverting it: a guide index over equal-width slices of [0, 1)
// narrows each draw to the few CDF entries one slice spans, and a binary
// search inside that range returns exactly what sort.SearchFloat64s
// would over the whole table. CDF and guide are immutable after NewZipf,
// so samplers that differ only in their Source share them (WithSource).
type Zipf struct {
	cdf []float64
	// guide[b] is the smallest k with cdf[k] >= b/buckets, for b in
	// [0, buckets]; buckets is a power of two, so the slice a draw u falls
	// in, floor(u*buckets), is computed exactly.
	guide []uint32
	src   *Source
}

// NewZipf builds a sampler over [0, n) with exponent s >= 0 drawing from
// src. s = 0 degenerates to the uniform distribution.
func NewZipf(src *Source, s float64, n int) (*Zipf, error) {
	if n <= 0 || uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("rng: Zipf domain size %d outside [1, 2^32)", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("rng: Zipf exponent %v out of range", s)
	}
	if src == nil {
		return nil, fmt.Errorf("rng: Zipf with nil source")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	// About one slice per entry: most slices then span one or two entries.
	buckets := 1 << bits.Len(uint(n-1))
	guide := make([]uint32, buckets+1)
	k := 0
	for b := range guide {
		for cdf[k] < float64(b)/float64(buckets) {
			k++
		}
		guide[b] = uint32(k)
	}
	return &Zipf{cdf: cdf, guide: guide, src: src}, nil
}

// WithSource returns a sampler over z's tables that draws from src. The
// tables are shared, not copied: the threads of one workload model each
// carry their own Source over a single CDF.
func (z *Zipf) WithSource(src *Source) *Zipf {
	return &Zipf{cdf: z.cdf, guide: z.guide, src: src}
}

// Next draws one sample in [0, n), n the domain size NewZipf was given.
func (z *Zipf) Next() int { return z.search(z.src.Float64()) }

// search returns the smallest k with cdf[k] >= u, for u in [0, 1). The
// answer is monotone in u, so it lies between the guide entries of the
// slice bounds on either side of u.
func (z *Zipf) search(u float64) int {
	b := int(u * float64(len(z.guide)-1))
	lo, hi := int(z.guide[b]), int(z.guide[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

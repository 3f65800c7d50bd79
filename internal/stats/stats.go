// Package stats provides the small numeric helpers the experiment layer
// uses to aggregate per-workload results into the suite-level numbers the
// paper reports (arithmetic and geometric means, ratios, percentages) and
// a fixed-bucket histogram for sharing degrees.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// clamped to a tiny epsilon (the convention replacement studies use when
// normalizing miss counts that can reach zero), and an empty slice yields 0.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const eps = 1e-12
	sum := 0.0
	for _, x := range xs {
		if x < eps {
			x = eps
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Ratio returns num/den, or 0 when den is 0.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Pct formats a fraction as a fixed-width percentage, e.g. 0.0634 →
// "6.34%".
func Pct(frac float64) string { return fmt.Sprintf("%.2f%%", 100*frac) }

// degreeBuckets are the sharing-degree groups used by the F3 experiment:
// private (1), pairwise (2), small groups (3-4) and wide sharing (5+).
var degreeBuckets = []struct {
	Label    string
	Min, Max int
}{
	{"1", 1, 1},
	{"2", 2, 2},
	{"3-4", 3, 4},
	{"5+", 5, math.MaxInt32},
}

// BucketizeDegrees folds a per-degree count vector (index = degree) into
// the four degreeBuckets and returns each bucket's share of the total.
// An all-zero input yields all-zero shares.
func BucketizeDegrees(byDegree []uint64) [4]float64 {
	var counts [4]uint64
	var total uint64
	for degree, n := range byDegree {
		if degree == 0 || n == 0 {
			continue
		}
		total += n
		for i, b := range degreeBuckets {
			if degree >= b.Min && degree <= b.Max {
				counts[i] += n
				break
			}
		}
	}
	var shares [4]float64
	if total == 0 {
		return shares
	}
	for i, c := range counts {
		shares[i] = float64(c) / float64(total)
	}
	return shares
}

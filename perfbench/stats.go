package main

import (
	"math"
	"sort"
)

// inf stands in for the latency of a failed request: it misses every limit.
var inf = math.Inf(1)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// dist summarizes one timing sample: its median and the highest tail
// percentile the sample supports, with the sample count.
type dist struct {
	N     int
	P50   float64
	TailP float64 // 0 when the sample supports no percentile
	Tail  float64
}

// supportedTail returns the highest percentile in tailPercentiles that has
// at least ten samples beyond it out of n, or 0 when none has.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// quantile returns the q-quantile (0..1) of sorted xs by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*frac
}

// summarize computes the median and the supported tail of xs.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 0.5)}
	if p := supportedTail(len(s)); p > 0 {
		d.TailP, d.Tail = p, quantile(s, p/100)
	}
	return d
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// percentile returns the p-th percentile (0..100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p/100)
}

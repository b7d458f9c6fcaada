package dtw

import "math"

// LBKim is an O(1) lower bound on Distance(a, b) from the first and last
// elements alone (after Kim et al., as used by Keogh & Ratanamahatana and
// Rakthanmanon et al.). Every warping path starts at cell (1,1) and ends
// at cell (m,n), so the path cost C is at least
// (a₁−b₁)² + (a_m−b_n)², counted once when m = n = 1; a path has at most
// m+n−1 cells, so Distance = sqrt(C/K) >= sqrt(C/(m+n−1)).
//
// The bound uses the same float operations as the DP in the same order
// (the (1,1) cost is the first cumulative cost, and the (m,n) cost is
// added last), and each rounds monotonically, so the computed bound never
// exceeds the computed Distance (see Calculator.DistanceWithin). Empty
// series follow Distance's conventions.
func LBKim(a, b []float64) float64 {
	m, n := len(a), len(b)
	switch {
	case m == 0 && n == 0:
		return 0
	case m == 0 || n == 0:
		return math.Inf(1)
	}
	d := a[0] - b[0]
	c := d * d
	if m > 1 || n > 1 {
		e := a[m-1] - b[n-1]
		c += e * e
	}
	return math.Sqrt(c / float64(m+n-1))
}

// AbsoluteLBKim is LBKim for AbsoluteCost: |a₁−b₁| + |a_m−b_n|, counted
// once when m = n = 1, never exceeds the unnormalized path cost.
func AbsoluteLBKim(a, b []float64) float64 {
	m, n := len(a), len(b)
	switch {
	case m == 0 && n == 0:
		return 0
	case m == 0 || n == 0:
		return math.Inf(1)
	}
	c := math.Abs(a[0] - b[0])
	if m > 1 || n > 1 {
		c += math.Abs(a[m-1] - b[n-1])
	}
	return c
}

package dtw

import "math"

// Calculator computes DTW distances with owned, reusable DP rows. The free
// functions Distance, WindowedDistance and AbsoluteCost allocate four
// slices per call, which dominates the allocation profile of the O(n²)
// pairwise loops in account grouping; a Calculator amortizes that to
// (roughly) one allocation per worker for a whole grouping run.
//
// A Calculator is not safe for concurrent use: give each worker goroutine
// its own (see parallel.PairwiseWorkers). The zero value is ready to use.
// Results are bit-identical to the free functions.
//
// Each cost flavour has one DP loop, which takes an abandon limit: the
// unbounded methods call it with limit +Inf, which never abandons. See
// DistanceWithin for the abandon rule and why it is exact.
type Calculator struct {
	prev, cur       []float64
	prevLen, curLen []int
}

// NewCalculator returns a Calculator with empty buffers; they grow on first
// use and are reused afterwards.
func NewCalculator() *Calculator { return &Calculator{} }

// grow ensures the DP rows hold at least size entries.
func (c *Calculator) grow(size int) {
	if cap(c.prev) < size {
		c.prev = make([]float64, size)
		c.cur = make([]float64, size)
		c.prevLen = make([]int, size)
		c.curLen = make([]int, size)
	}
	c.prev = c.prev[:size]
	c.cur = c.cur[:size]
	c.prevLen = c.prevLen[:size]
	c.curLen = c.curLen[:size]
}

// Distance is the reusable-buffer equivalent of the package-level Distance.
func (c *Calculator) Distance(a, b []float64) float64 {
	return c.WindowedDistance(a, b, 0)
}

// WindowedDistance is the reusable-buffer equivalent of the package-level
// WindowedDistance; see that function for the algorithm and conventions.
func (c *Calculator) WindowedDistance(a, b []float64, window int) float64 {
	d, _ := c.windowedWithin(a, b, window, math.Inf(1))
	return d
}

// DistanceWithin is Distance with an abandon limit. It returns
// (Distance(a, b), true) unless it can prove Distance(a, b) >= limit
// before the DP finishes; then it stops and returns (lb, false) with
// limit <= lb <= Distance(a, b). A limit of +Inf never abandons.
//
// The proof is a row bound. Every warping path crosses every DP row, and
// the cumulative cost never decreases along a path, so the smallest
// cumulative cost in a row bounds the final cost C from below. A path has
// at most m+n-1 cells, so Distance = sqrt(C/K) >= sqrt(rowMin/(m+n-1)).
// The bound is computed with the same float operations as the distance,
// and each of them rounds monotonically: adding a non-negative cost never
// makes a cumulative cost smaller, dividing by a larger K never makes the
// quotient larger, and sqrt preserves order. So the computed bound never
// exceeds the computed distance and no epsilon is needed.
func (c *Calculator) DistanceWithin(a, b []float64, limit float64) (float64, bool) {
	return c.windowedWithin(a, b, 0, limit)
}

// windowedWithin is the Eq. (7) DP behind Distance, WindowedDistance and
// DistanceWithin.
func (c *Calculator) windowedWithin(a, b []float64, window int, limit float64) (float64, bool) {
	m, n := len(a), len(b)
	switch {
	case m == 0 && n == 0:
		return 0, true
	case m == 0 || n == 0:
		return math.Inf(1), true
	}
	if window <= 0 || window >= m+n {
		window = m + n // effectively unconstrained
	}
	if d := m - n; d < 0 {
		d = -d
		if window < d {
			window = d
		}
	} else if window < d {
		window = d
	}

	// Rolling two-row DP over cumulative cost r(i,j) =
	// dist(a_i, b_j) + min(r(i-1,j-1), r(i-1,j), r(i,j-1)).
	// pathLen tracks K, the number of cells on the optimal path, needed for
	// the length normalization of Eq. (7). Ties in cost prefer the diagonal
	// (shortest path), matching the common DTW implementation.
	inf := math.Inf(1)
	bounded := limit < inf
	kMax := float64(m + n - 1)
	c.grow(n + 1)
	prev, cur, prevLen, curLen := c.prev, c.cur, c.prevLen, c.curLen
	for j := 0; j <= n; j++ {
		prev[j] = inf
		prevLen[j] = 0
	}
	prev[0] = 0

	for i := 1; i <= m; i++ {
		for j := 0; j <= n; j++ {
			cur[j] = inf
			curLen[j] = 0
		}
		lo, hi := i-window, i+window
		if lo < 1 {
			lo = 1
		}
		if hi > n {
			hi = n
		}
		ai := a[i-1]
		for j := lo; j <= hi; j++ {
			d := ai - b[j-1]
			cost := d * d
			// Candidates: diagonal, up (from prev row), left (same row).
			// Minimize (cost, pathLen) lexicographically: among equal-cost
			// paths the shortest is kept, which makes the normalized
			// distance independent of argument order even under ties.
			bestCost := prev[j-1]
			bestLen := prevLen[j-1]
			if prev[j] < bestCost || (prev[j] == bestCost && prevLen[j] < bestLen) {
				bestCost = prev[j]
				bestLen = prevLen[j]
			}
			if cur[j-1] < bestCost || (cur[j-1] == bestCost && curLen[j-1] < bestLen) {
				bestCost = cur[j-1]
				bestLen = curLen[j-1]
			}
			if math.IsInf(bestCost, 1) {
				continue
			}
			cur[j] = bestCost + cost
			curLen[j] = bestLen + 1
		}
		if bounded {
			rowMin := inf
			for _, r := range cur[lo : hi+1] {
				if r < rowMin {
					rowMin = r
				}
			}
			if lb := math.Sqrt(rowMin / kMax); lb >= limit {
				return lb, false
			}
		}
		// Special case: cell (1, j) can start from r(0,0) only via the
		// diagonal when j==1; the loop above already handles it because
		// prev[0] = 0 for i == 1. For i > 1, prev[0] must be inf.
		prev, cur = cur, prev
		prevLen, curLen = curLen, prevLen
		prev[0] = inf
	}
	total := prev[n]
	k := prevLen[n]
	if math.IsInf(total, 1) || k == 0 {
		return math.Inf(1), true
	}
	return math.Sqrt(total / float64(k)), true
}

// AbsoluteCost is the reusable-buffer equivalent of the package-level
// AbsoluteCost; see that function for the algorithm and conventions.
func (c *Calculator) AbsoluteCost(a, b []float64) float64 {
	d, _ := c.AbsoluteCostWithin(a, b, math.Inf(1))
	return d
}

// AbsoluteCostWithin is AbsoluteCost with an abandon limit: it returns
// (AbsoluteCost(a, b), true), or (lb, false) with
// limit <= lb <= AbsoluteCost(a, b) once a whole DP row has reached the
// limit. The argument is DistanceWithin's without the normalization: the
// final cost is the smallest cost of some row plus non-negative terms.
func (c *Calculator) AbsoluteCostWithin(a, b []float64, limit float64) (float64, bool) {
	m, n := len(a), len(b)
	switch {
	case m == 0 && n == 0:
		return 0, true
	case m == 0 || n == 0:
		return math.Inf(1), true
	}
	inf := math.Inf(1)
	bounded := limit < inf
	c.grow(n + 1)
	prev, cur := c.prev, c.cur
	for j := 0; j <= n; j++ {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= m; i++ {
		cur[0] = inf
		for j := 1; j <= n; j++ {
			cost := math.Abs(a[i-1] - b[j-1])
			best := prev[j-1]
			if prev[j] < best {
				best = prev[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = cost + best
		}
		if bounded {
			rowMin := inf
			for _, r := range cur[1:] {
				if r < rowMin {
					rowMin = r
				}
			}
			if rowMin >= limit {
				return rowMin, false
			}
		}
		prev, cur = cur, prev
		// After the first row, r(0,0) is no longer reachable as a path
		// start, so the left border stays infinite.
		prev[0] = inf
	}
	return prev[n], true
}

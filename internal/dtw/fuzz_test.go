package dtw

import (
	"math"
	"testing"
)

// bytesToSeries turns fuzz bytes into a bounded float series.
func bytesToSeries(bs []byte) []float64 {
	out := make([]float64, 0, len(bs))
	for _, b := range bs {
		out = append(out, float64(int(b)-128)/8)
	}
	return out
}

// FuzzDistance checks DTW's metric-ish axioms on arbitrary series: no
// panics, non-negativity, symmetry, identity, and agreement between the
// windowed and unconstrained variants when the band covers everything.
// It also checks the pruning machinery against a fuzzed limit: LB_Kim
// never exceeds the full cost, a bounded call that finishes is
// bit-identical to the unbounded one, and one that abandons is right to.
func FuzzDistance(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1}, uint16(200))
	f.Add([]byte{}, []byte{5}, uint16(0))
	f.Add([]byte{128}, []byte{128}, uint16(1))
	f.Add([]byte{0, 255, 0, 255}, []byte{255, 0}, uint16(3000))

	f.Fuzz(func(t *testing.T, rawA, rawB []byte, rawLimit uint16) {
		if len(rawA) > 64 {
			rawA = rawA[:64]
		}
		if len(rawB) > 64 {
			rawB = rawB[:64]
		}
		a := bytesToSeries(rawA)
		b := bytesToSeries(rawB)

		d := Distance(a, b)
		switch {
		case len(a) == 0 && len(b) == 0:
			if d != 0 {
				t.Fatalf("both-empty distance = %v", d)
			}
			return
		case len(a) == 0 || len(b) == 0:
			if !math.IsInf(d, 1) {
				t.Fatalf("one-empty distance = %v", d)
			}
			return
		}
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("distance = %v", d)
		}
		if rd := Distance(b, a); math.Abs(d-rd) > 1e-9*(1+d) {
			t.Fatalf("asymmetric: %v vs %v", d, rd)
		}
		if self := Distance(a, a); self != 0 {
			t.Fatalf("Distance(a,a) = %v", self)
		}
		wide := WindowedDistance(a, b, len(a)+len(b))
		if math.Abs(wide-d) > 1e-9*(1+d) {
			t.Fatalf("wide window %v != unconstrained %v", wide, d)
		}
		if abs := AbsoluteCost(a, b); abs < 0 || math.IsNaN(abs) {
			t.Fatalf("AbsoluteCost = %v", abs)
		}
		// A reused Calculator must agree bit-for-bit with the free
		// functions on every input (buffer reuse across the three calls
		// exercises stale-state handling).
		var calc Calculator
		if cd := calc.Distance(a, b); cd != d {
			t.Fatalf("Calculator.Distance = %v, free = %v", cd, d)
		}
		if cw, w := calc.WindowedDistance(a, b, 2), WindowedDistance(a, b, 2); cw != w {
			t.Fatalf("Calculator.WindowedDistance = %v, free = %v", cw, w)
		}
		if ca, ab := calc.AbsoluteCost(a, b), AbsoluteCost(a, b); ca != ab {
			t.Fatalf("Calculator.AbsoluteCost = %v, free = %v", ca, ab)
		}

		limit := float64(rawLimit) / 128
		checkBounded(t, "Distance", a, b, d, LBKim(a, b), limit, calc.DistanceWithin)
		checkBounded(t, "AbsoluteCost", a, b, AbsoluteCost(a, b), AbsoluteLBKim(a, b), limit, calc.AbsoluteCostWithin)
	})
}

// checkBounded checks one cost flavour's pruning on (a, b) against its
// full cost: lb (LB_Kim) <= full, and within(a, b, limit) either finishes
// with full bit for bit or abandons with limit <= its bound <= full.
func checkBounded(t *testing.T, name string, a, b []float64, full, lb, limit float64, within func(a, b []float64, limit float64) (float64, bool)) {
	t.Helper()
	if lb > full {
		t.Fatalf("%s: LB_Kim %v > full cost %v", name, lb, full)
	}
	got, done := within(a, b, limit)
	switch {
	case done && got != full:
		t.Fatalf("%s within %v finished with %v, full cost %v", name, limit, got, full)
	case !done && !(limit <= got && got <= full):
		t.Fatalf("%s within %v abandoned with bound %v, full cost %v", name, limit, got, full)
	}
}

package main

import (
	"math"
	"testing"
)

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsCountMedianAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	d := summarize(xs)
	if d.N != 100 || d.P50 != 50.5 || d.TailP != 90 {
		t.Fatalf("summarize = %+v, want n=100 p50=50.5 tail p90", d)
	}
	if math.Abs(d.Tail-90.1) > 1e-9 {
		t.Fatalf("p90 = %v, want 90.1", d.Tail)
	}
}

func TestFailedRequestsMissEveryLimit(t *testing.T) {
	xs := []float64{1, 2, 3, inf}
	if got := quantile([]float64{1, 2, 3, inf}, 1); !math.IsInf(got, 1) {
		t.Fatalf("max of a sample with a failure = %v, want +Inf", got)
	}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of an empty sample should be NaN")
	}
}

package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"sybiltd/internal/platform"
)

// TestWorkloadsSmoke runs every workload at a small scale, untraced and
// traced, and requires every output check to pass and every metric to be
// reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts full platform fleets")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 3, seconds: 2, trace: traced, scale: 0.2, dir: t.TempDir()}
			o, _, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !o.Correct {
				t.Errorf("%s trace=%v: checks failed: %+v", name, traced, o.Checks)
			}
			for _, m := range e2eNames {
				if o.E2E[m.name] <= 0 {
					t.Errorf("%s trace=%v: %s = %v, want > 0", name, traced, m.name, o.E2E[m.name])
				}
			}
			if !traced {
				continue
			}
			for _, l := range layerNames {
				if _, ok := o.Layers[l.name]; !ok {
					t.Errorf("%s: layer metric %s missing", name, l.name)
				}
			}
			if o.Layers["platform.client.self_ms"] <= 0 {
				t.Errorf("%s: no client spans recorded", name)
			}
		}
	}
}

// TestFailedReadsCountAsMissingEveryLimit feeds campaign samples in which
// a fast read fails: the failure must raise the median, not lower it.
func TestFailedReadsCountAsMissingEveryLimit(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(kind, method string, latMs int, err error) sample {
		o := &op{Kind: kind, Method: method}
		if kind == "submit" {
			o.Reports = []platform.SubmissionRequest{{Account: "a", Task: 0}}
		}
		d := time.Duration(latMs) * time.Millisecond
		return sample{op: o, due: t0, sent: t0, done: t0.Add(d), err: err}
	}
	shed := errors.New("503 shed")
	samples := []sample{
		at("fingerprint", "", 30, nil), at("fingerprint", "", 40, nil), at("fingerprint", "", 1, shed),
		at("submit", "", 5, nil),
	}
	for _, m := range campaignMethods {
		samples = append(samples, at("aggregate", m, 100, nil), at("aggregate", m, 200, nil), at("aggregate", m, 1, shed))
	}
	out := &outcome{E2E: map[string]float64{}}
	campaignMetrics(out, samples)
	if got := out.E2E["truth_p50_ms"]; got != 200 {
		t.Errorf("truth_p50_ms = %v, want 200: a failed td-tr read must count as +Inf", got)
	}
	fp := math.NaN()
	for _, l := range out.Report {
		if l.Name == "fingerprint_p50_ms" {
			fp = l.Value
		}
	}
	if fp != 40 {
		t.Errorf("fingerprint_p50_ms = %v, want 40: a failed upload must count as +Inf", fp)
	}
	if out.Attempted != len(samples) || out.Failed != 1+len(campaignMethods) {
		t.Errorf("attempted %d failed %d, want %d and %d", out.Attempted, out.Failed, len(samples), 1+len(campaignMethods))
	}
}

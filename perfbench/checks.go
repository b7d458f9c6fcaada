package main

import (
	"context"
	"fmt"
	"math"

	"sybiltd/internal/experiment"
	"sybiltd/internal/mcs"
	"sybiltd/internal/platform"
)

// checkAcked verifies zero acknowledged loss: every acknowledged report is
// in the final dataset with the value that was sent.
func checkAcked(out *outcome, ds *mcs.Dataset, acked []platform.SubmissionRequest) {
	type key struct {
		account string
		task    int
	}
	have := make(map[key]float64)
	for _, a := range ds.Accounts {
		for _, o := range a.Observations {
			have[key{a.ID, o.Task}] = o.Value
		}
	}
	missing := 0
	for _, r := range acked {
		if v, ok := have[key{r.Account, r.Task}]; !ok || v != r.Value {
			missing++
		}
	}
	out.check("zero_acked_loss", missing == 0 && len(acked) > 0,
		fmt.Sprintf("%d acked reports, %d missing or altered", len(acked), missing))
}

// checkServed verifies that no served aggregate was degraded and that the
// final served answer of every method is bit-identical to an offline
// platform.AggregateDataset on the final dataset.
func checkServed(ctx context.Context, out *outcome, e *executor, ds *mcs.Dataset, methods []string) error {
	out.check("no_degraded_aggregate", e.degraded == 0, fmt.Sprintf("%d degraded answers", e.degraded))
	for _, m := range methods {
		served, ok := e.answers[m]
		if !ok {
			out.check("bit_identical_"+m, false, "never served")
			continue
		}
		res, _, err := platform.AggregateDataset(ctx, m, ds)
		if err != nil {
			return fmt.Errorf("offline %s: %w", m, err)
		}
		diff := 0
		for _, t := range served.Truths {
			want := res.Truths[t.Task]
			if math.IsNaN(want) {
				if t.Estimated {
					diff++
				}
				continue
			}
			if !t.Estimated || math.Float64bits(t.Value) != math.Float64bits(want) {
				diff++
			}
		}
		if len(served.Truths) != len(res.Truths) {
			diff++
		}
		out.check("bit_identical_"+m, diff == 0, fmt.Sprintf("%d of %d tasks differ", diff, len(res.Truths)))
	}
	return nil
}

// servedMAE is the MAE of a served answer against the ground truth.
func servedMAE(resp platform.AggregateResponse, groundTruth []float64) (float64, error) {
	est := make([]float64, len(groundTruth))
	for j := range est {
		est[j] = math.NaN()
	}
	for _, t := range resp.Truths {
		if t.Estimated && t.Task < len(est) {
			est[t.Task] = t.Value
		}
	}
	return experiment.MAEAgainstTruth(est, groundTruth)
}

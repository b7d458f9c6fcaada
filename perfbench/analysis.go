package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"sybiltd/internal/core"
	"sybiltd/internal/dtw"
	"sybiltd/internal/fingerprint"
	"sybiltd/internal/grouping"
	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/metrics"
	"sybiltd/internal/platform"
)

// The offline analyses time the algorithm layers by direct calls on the
// inputs the platform served, in traced runs only: the server builds its
// frameworks internally, so the framework observer and the grouping, DTW
// and fingerprint calls are reached from here.

// stageObserver collects core.Framework stage durations and truth-loop
// iterations through core.Config.Observer.
type stageObserver struct {
	stages map[string]time.Duration
	iters  int
}

func (s *stageObserver) SpanStart(string) {}

func (s *stageObserver) SpanEnd(name string, d time.Duration) { s.stages[name] += d }

func (s *stageObserver) Iteration(string, int, float64) { s.iters++ }

// analyzeFramework runs td-tr, td-ts and td-fp with an observer on ds and
// records the core and grouping metrics. owners maps account IDs to their
// true owner for the grouping ARI; unknown accounts are their own owner.
func analyzeFramework(ds *mcs.Dataset, owners map[string]int, out map[string]float64) error {
	groupers := []struct {
		metric string
		g      grouping.Grouper
	}{
		{"grouping.agtr_ms", grouping.AGTR{Phi: 0.3}},
		{"grouping.agts_ms", grouping.AGTS{}},
		{"grouping.agfp_ms", grouping.AGFP{}},
	}
	for i, gr := range groupers {
		obs := &stageObserver{stages: map[string]time.Duration{}}
		fw := core.Framework{Grouper: gr.g, Config: core.Config{Observer: obs, DegradeOnGroupingFailure: true}}
		res, g, err := fw.RunDetailed(ds)
		if err != nil {
			return fmt.Errorf("offline %s: %w", fw.Name(), err)
		}
		out[gr.metric] = ms(obs.stages["grouping"])
		if res.Degraded {
			out["core.degraded"]++
		}
		if i > 0 {
			continue
		}
		// The core.* stage metrics and the grouping quality are td-tr's.
		out["core.grouping_ms"] = ms(obs.stages["grouping"])
		out["core.group_aggregation_ms"] = ms(obs.stages["group_aggregation"])
		out["core.truth_loop_ms"] = ms(obs.stages["truth_loop"])
		out["core.truth_iterations"] = float64(obs.iters)
		out["grouping.groups"] = float64(g.NumGroups())
		truthLabels := make([]int, ds.NumAccounts())
		next := len(owners) + 1
		for ai, a := range ds.Accounts {
			if o, ok := owners[a.ID]; ok {
				truthLabels[ai] = o
			} else {
				truthLabels[ai] = next
				next++
			}
		}
		ari, err := metrics.AdjustedRandIndex(truthLabels, g.Labels(ds.NumAccounts()))
		if err != nil {
			return fmt.Errorf("grouping ARI: %w", err)
		}
		out["grouping.ari"] = ari
	}
	return nil
}

// dtwSamplePairs is how many account pairs analyzeDTW times.
const dtwSamplePairs = 2000

// analyzeDTW times dtw.Calculator.Distance on a seeded sample of account
// pairs of ds, with AG-TR's task and timestamp series, and records the
// per-pair time and the pair count n(n-1)/2 a full AG-TR pass evaluates.
func analyzeDTW(ds *mcs.Dataset, seed int64, out map[string]float64) {
	n := ds.NumAccounts()
	out["dtw.pairs"] = float64(n) * float64(n-1) / 2
	if n < 2 {
		return
	}
	origin, _, _ := ds.TimeSpan()
	tr := grouping.AGTR{}
	tasks := make([][]float64, n)
	times := make([][]float64, n)
	for i := range ds.Accounts {
		tasks[i], times[i] = tr.Series(ds, i, origin, 24*time.Hour)
	}
	rng := rand.New(rand.NewSource(seed))
	var calc dtw.Calculator
	per := make([]float64, 0, dtwSamplePairs)
	for k := 0; k < dtwSamplePairs; k++ {
		i, j := rng.Intn(n), rng.Intn(n-1)
		if j >= i {
			j++
		}
		t0 := time.Now()
		calc.Distance(tasks[i], tasks[j])
		calc.Distance(times[i], times[j])
		per = append(per, float64(time.Since(t0))/float64(time.Microsecond))
	}
	out["dtw.pair_us"] = median(per)
}

// analyzeDataset times the served store's Dataset snapshot directly: the
// campaign's aggregates take it inside the store, out of the decorator's
// reach.
func analyzeDataset(ctx context.Context, store *platform.LocalStore, out map[string]float64) error {
	var per []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := store.Dataset(ctx); err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		per = append(per, ms(time.Since(t0)))
	}
	out["platform.store.dataset_ms"] = median(per)
	return nil
}

// analyzeExtract times fingerprint.Extract on the recordings the platform
// was served.
func analyzeExtract(recs []mems.Recording, out map[string]float64) {
	var per []float64
	for _, r := range recs {
		t0 := time.Now()
		fingerprint.Extract(r)
		per = append(per, ms(time.Since(t0)))
	}
	if len(per) > 0 {
		out["fingerprint.extract_ms"] = median(per)
	}
}

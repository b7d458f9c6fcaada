package grouping

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sybiltd/internal/dtw"
	"sybiltd/internal/graph"
	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/parallel"
)

// DefaultPhi is the dissimilarity threshold the paper uses in its worked
// example (φ = 1).
const DefaultPhi = 1.0

// TRMode selects the DTW flavor used by AG-TR.
type TRMode int

const (
	// TREq7 uses the paper's Eq. (7): squared pointwise distance, total
	// path cost divided by path length, square root. This is the default
	// and the variant used in the synthetic experiments.
	TREq7 TRMode = iota + 1
	// TRAbsolute uses the classic unnormalized absolute-distance DTW cost,
	// which is what the worked example of Fig. 4 actually tabulates.
	TRAbsolute
)

// AGTR groups accounts by trajectory (§IV-C, "Account Grouping by
// Trajectory"): each account's observations, ordered by timestamp, form a
// task series X_i (which tasks, in what order) and a timestamp series Y_i
// (when); the dissimilarity of Eq. (8),
//
//	D(i,j) = DTW(X_i, X_j) + DTW(Y_i, Y_j),
//
// decides which pairs become graph edges (those strictly below Phi), and
// connected components become groups. Pairs that provably reach Phi are
// rejected early by exact lower bounds (see edges), so the partition is
// the brute-force one. It defends against Attack-II
// even when most accounts perform similar task sets, because the timestamp
// series still separates independent users.
type AGTR struct {
	// Phi is the dissimilarity threshold. Zero means DefaultPhi. Edges
	// require dissimilarity < Phi (the paper's strict inequality).
	Phi float64
	// PhiSet forces Phi to be used verbatim even when zero.
	PhiSet bool
	// Mode selects the DTW flavor; zero means TREq7.
	Mode TRMode
	// TimeUnit scales the timestamp series: each timestamp becomes the
	// duration since the campaign start divided by TimeUnit. Zero means
	// 24h, which reproduces the day-fraction magnitudes of Fig. 4(b).
	TimeUnit time.Duration
}

// Name implements Grouper.
func (AGTR) Name() string { return "AG-TR" }

// Series returns account ai's task series and timestamp series. Tasks are
// numbered from 1 (as in the paper's example); timestamps are offsets from
// origin in units of unit.
func (g AGTR) Series(ds *mcs.Dataset, ai int, origin time.Time, unit time.Duration) (tasks, times []float64) {
	obs := ds.Accounts[ai].SortedObservations()
	tasks = make([]float64, len(obs))
	times = make([]float64, len(obs))
	for k, o := range obs {
		tasks[k] = float64(o.Task + 1)
		times[k] = float64(o.Time.Sub(origin)) / float64(unit)
	}
	return tasks, times
}

// Dissimilarity returns the Eq. (8) dissimilarity between accounts i and j,
// computed in full. It is +Inf when either account is idle (has no
// observations): with no trajectory evidence, Group never links it.
func (g AGTR) Dissimilarity(ds *mcs.Dataset, i, j int) float64 {
	origin, _, ok := ds.TimeSpan()
	if !ok {
		origin = time.Time{}
	}
	xi, yi := g.Series(ds, i, origin, g.unit())
	xj, yj := g.Series(ds, j, origin, g.unit())
	if len(xi) == 0 || len(xj) == 0 {
		return math.Inf(1)
	}
	var c dtw.Calculator
	dx, _ := g.distanceWithin(&c, xi, xj, math.Inf(1))
	dy, _ := g.distanceWithin(&c, yi, yj, math.Inf(1))
	return dx + dy
}

// phi is Phi with its default applied.
func (g AGTR) phi() float64 {
	if g.Phi == 0 && !g.PhiSet {
		return DefaultPhi
	}
	return g.Phi
}

// unit is TimeUnit with its default applied.
func (g AGTR) unit() time.Duration {
	if g.TimeUnit == 0 {
		return 24 * time.Hour
	}
	return g.TimeUnit
}

// lowerBound is the O(1) LB_Kim bound of the mode's DTW flavour.
func (g AGTR) lowerBound(a, b []float64) float64 {
	if g.Mode == TRAbsolute {
		return dtw.AbsoluteLBKim(a, b)
	}
	return dtw.LBKim(a, b)
}

// distanceWithin is the mode's DTW flavour through a caller-owned
// Calculator (the hot pairwise loop reuses DP buffers instead of
// allocating four slices per evaluation). It reports false when it
// abandoned the DP because the distance provably reaches limit; with limit
// +Inf it always runs in full.
func (g AGTR) distanceWithin(c *dtw.Calculator, a, b []float64, limit float64) (float64, bool) {
	if g.Mode == TRAbsolute {
		return c.AbsoluteCostWithin(a, b, limit)
	}
	return c.DistanceWithin(a, b, limit)
}

// Group implements Grouper.
func (g AGTR) Group(ds *mcs.Dataset) (Grouping, error) {
	return g.GroupContext(context.Background(), ds)
}

// GroupContext implements ContextGrouper: the O(n²) pairwise stage — the
// framework's hottest — stops handing out pairs once ctx is done and the
// context error is returned, so a request deadline can bound a grouping
// pass that would otherwise run for seconds.
func (g AGTR) GroupContext(ctx context.Context, ds *mcs.Dataset) (Grouping, error) {
	if ds == nil {
		return Grouping{}, ErrNilDataset
	}
	n := ds.NumAccounts()
	if n == 0 {
		return Grouping{}, nil
	}
	origin, _, ok := ds.TimeSpan()
	if !ok {
		origin = time.Time{}
	}
	// Precompute the series once; the pairwise stage is the hot path.
	taskSeries := make([][]float64, n)
	timeSeries := make([][]float64, n)
	for i := 0; i < n; i++ {
		taskSeries[i], timeSeries[i] = g.Series(ds, i, origin, g.unit())
	}
	sw := obs.Default().Timer("grouping.agtr.distance_matrix_seconds").Start()
	edges, stats, err := g.edges(ctx, taskSeries, timeSeries, g.phi())
	sw.Stop()
	reg := obs.Default()
	reg.Counter("grouping.agtr.pairs_bound_pruned").Add(stats.boundPruned)
	reg.Counter("grouping.agtr.pairs_abandoned").Add(stats.abandoned)
	reg.Counter("grouping.agtr.pairs_full").Add(stats.full)
	if err != nil {
		return Grouping{}, fmt.Errorf("grouping: AG-TR cancelled: %w", err)
	}
	sw = obs.Default().Timer("grouping.agtr.components_seconds").Start()
	ug := graph.NewUndirected(n)
	for _, e := range edges {
		// Error impossible: indices are in range by construction.
		_ = ug.AddEdge(e.i, e.j, e.d)
	}
	grp := fromComponents(ug.ConnectedComponents())
	sw.Stop()
	return grp, nil
}

// agtrEdge is a pair of accounts whose Eq. (8) dissimilarity d is below φ;
// k is the pair's row-major rank (parallel.PairIndex).
type agtrEdge struct {
	k, i, j int
	d       float64
}

// agtrStats counts how each pair was decided: rejected by the LB_Kim
// bound (idle pairs included), abandoned in the task-series DP, or with
// the task-series DP run in full.
type agtrStats struct {
	boundPruned, abandoned, full int64
}

// agtrWorker is one pairwise worker's DTW buffers, edges and counts.
type agtrWorker struct {
	calc  dtw.Calculator
	edges []agtrEdge
	stats agtrStats
}

// edges returns the pairs whose Eq. (8) dissimilarity is below phi, in
// pair-rank order, exactly as a full pairwise matrix thresholded in
// row-major order would, but without the matrix. For each pair:
//
//  1. Idle pairs and pairs whose task-series LB_Kim bound reaches phi are
//     rejected in O(1). D_time >= 0, and adding a non-negative float never
//     rounds below the other addend, so D_task >= phi implies D >= phi.
//  2. The task-series DTW runs with abandon limit phi: once a whole DP
//     row proves D_task >= phi, the pair is rejected, and so is a pair
//     whose completed D_task reaches phi.
//  3. Survivors get the exact time-series DTW and the exact sum D, kept
//     when D < phi (the paper's strict inequality).
//
// Each worker collects its own edges and counts; they are merged and the
// edges sorted by rank afterwards, so the result is identical at any
// GOMAXPROCS.
func (g AGTR) edges(ctx context.Context, taskSeries, timeSeries [][]float64, phi float64) ([]agtrEdge, agtrStats, error) {
	var (
		mu      sync.Mutex
		workers []*agtrWorker
	)
	err := parallel.PairwiseWorkersCtx(ctx, len(taskSeries), func() func(i, j, k int) {
		w := &agtrWorker{}
		mu.Lock()
		workers = append(workers, w)
		mu.Unlock()
		return func(i, j, k int) {
			ti, tj := taskSeries[i], taskSeries[j]
			if len(ti) == 0 || len(tj) == 0 || g.lowerBound(ti, tj) >= phi {
				w.stats.boundPruned++
				return
			}
			dTask, done := g.distanceWithin(&w.calc, ti, tj, phi)
			if !done {
				w.stats.abandoned++
				return
			}
			w.stats.full++
			if dTask >= phi {
				return
			}
			dTime, _ := g.distanceWithin(&w.calc, timeSeries[i], timeSeries[j], math.Inf(1))
			if d := dTask + dTime; d < phi {
				w.edges = append(w.edges, agtrEdge{k: k, i: i, j: j, d: d})
			}
		}
	})
	var (
		edges []agtrEdge
		stats agtrStats
	)
	for _, w := range workers {
		edges = append(edges, w.edges...)
		stats.boundPruned += w.stats.boundPruned
		stats.abandoned += w.stats.abandoned
		stats.full += w.stats.full
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].k < edges[b].k })
	return edges, stats, err
}

var (
	_ Grouper        = AGTR{}
	_ ContextGrouper = AGTR{}
)

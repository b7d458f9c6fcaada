package grouping

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"sybiltd/internal/graph"
	"sybiltd/internal/mcs"
	"sybiltd/internal/parallel"
	"sybiltd/internal/simulate"
)

// bruteForceEdges is the oracle for AGTR.edges: every pair whose full
// Dissimilarity is below φ, in pair-rank order.
func bruteForceEdges(g AGTR, ds *mcs.Dataset) []agtrEdge {
	n := ds.NumAccounts()
	var out []agtrEdge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := g.Dissimilarity(ds, i, j); d < g.phi() {
				out = append(out, agtrEdge{k: parallel.PairIndex(n, i, j), i: i, j: j, d: d})
			}
		}
	}
	return out
}

// seriesOf returns AG-TR's task and timestamp series for every account.
func seriesOf(g AGTR, ds *mcs.Dataset) (tasks, times [][]float64) {
	origin, _, _ := ds.TimeSpan()
	n := ds.NumAccounts()
	tasks, times = make([][]float64, n), make([][]float64, n)
	for i := range tasks {
		tasks[i], times[i] = g.Series(ds, i, origin, g.unit())
	}
	return tasks, times
}

// TestAGTRPrunedMatchesBruteForce pins the pruned AG-TR to brute force:
// on random and simulated campaigns, in both DTW modes, with two time
// units, four thresholds and two worker counts, the edge list (pairs and
// bit-identical dissimilarities) equals the pairs whose full
// Dissimilarity is below φ, and the partition equals the components of
// graph.ThresholdBelow over Dissimilarity.
func TestAGTRPrunedMatchesBruteForce(t *testing.T) {
	var datasets []*mcs.Dataset
	for seed := int64(1); seed <= 40; seed++ {
		datasets = append(datasets, randomCampaign(seed))
	}
	sc, err := simulate.Build(simulate.Config{Seed: 4, NumLegit: 30, SybilActiveness: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	datasets = append(datasets, sc.Dataset)

	var groupers []AGTR
	for _, mode := range []TRMode{TREq7, TRAbsolute} {
		for _, unit := range []time.Duration{time.Hour, 24 * time.Hour} {
			for _, phi := range []float64{0.05, 0.3, 1} {
				groupers = append(groupers, AGTR{Phi: phi, Mode: mode, TimeUnit: unit})
			}
			groupers = append(groupers, AGTR{PhiSet: true, Mode: mode, TimeUnit: unit})
		}
	}
	var total agtrStats
	edgeCount := 0
	for _, procs := range []int{1, 8} {
		withProcs(t, procs, func() {
			for di, ds := range datasets {
				n := ds.NumAccounts()
				for _, g := range groupers {
					name := fmt.Sprintf("procs=%d dataset=%d %+v", procs, di, g)
					want := bruteForceEdges(g, ds)
					tasks, times := seriesOf(g, ds)
					got, stats, err := g.edges(context.Background(), tasks, times, g.phi())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got) != 0 || len(want) != 0 {
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: edges differ from brute force:\ngot  %v\nwant %v", name, got, want)
						}
					}
					if sum := stats.boundPruned + stats.abandoned + stats.full; sum != int64(parallel.NumPairs(n)) {
						t.Fatalf("%s: stats %+v cover %d pairs, want %d", name, stats, sum, parallel.NumPairs(n))
					}
					edgeCount += len(got)
					total.boundPruned += stats.boundPruned
					total.abandoned += stats.abandoned
					total.full += stats.full

					grp, err := g.Group(ds)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					oracle := fromComponents(graph.ThresholdBelow(n, func(i, j int) float64 {
						return g.Dissimilarity(ds, i, j)
					}, g.phi()).ConnectedComponents())
					if n > 0 && !reflect.DeepEqual(grp, oracle) {
						t.Fatalf("%s: partition differs from brute force:\ngot  %v\nwant %v", name, grp.Groups, oracle.Groups)
					}
				}
			}
		})
	}
	// The inputs must exercise every way a pair is decided.
	if edgeCount == 0 || total.boundPruned == 0 || total.abandoned == 0 || total.full == 0 {
		t.Fatalf("vacuous run: %d edges, stats %+v", edgeCount, total)
	}
}

// TestAGTRPruneBoundaries runs handcrafted integer series whose Eq. (8)
// dissimilarity, LB_Kim bound or DP row bound lands exactly on φ. Each
// case fixes both the edge and the step that decides the pair: a bound
// equal to φ must reject (D >= bound = φ, and edges need D < φ), and one
// ulp above φ the pair must pass that step.
func TestAGTRPruneBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		mode     TRMode
		a, b     []float64
		phi      float64
		edge     bool
		decision agtrStats
		// Timestamp series; nil means all zeros, so D = D_task.
		ta, tb []float64
	}{
		// D = sqrt((0+4)/2) after a full DP; LB_Kim = sqrt(4/3) < φ.
		{"eq7 D equals phi", TREq7, []float64{1, 3}, []float64{1, 1}, math.Sqrt(4.0 / 2), false, agtrStats{full: 1}, nil, nil},
		{"eq7 D just below phi", TREq7, []float64{1, 3}, []float64{1, 1}, math.Nextafter(math.Sqrt(4.0/2), 3), true, agtrStats{full: 1}, nil, nil},
		// LB_Kim = sqrt((4+4)/(2+1-1)) = 2 = D.
		{"eq7 LB_Kim equals phi", TREq7, []float64{1, 1}, []float64{3}, 2, false, agtrStats{boundPruned: 1}, nil, nil},
		{"eq7 LB_Kim just below phi", TREq7, []float64{1, 1}, []float64{3}, math.Nextafter(2, 3), true, agtrStats{full: 1}, nil, nil},
		// LB_Kim = 0; row 2 has cumulative costs (16, 16), so its bound
		// is sqrt(16/(3+2-1)) = 2; the full D is sqrt(16/3).
		{"eq7 row bound equals phi", TREq7, []float64{1, 5, 1}, []float64{1, 1}, 2, false, agtrStats{abandoned: 1}, nil, nil},
		{"eq7 row bound just below phi", TREq7, []float64{1, 5, 1}, []float64{1, 1}, math.Nextafter(2, 3), false, agtrStats{full: 1}, nil, nil},
		// Single elements: LB_Kim counts the one cell once, so it equals D.
		{"eq7 1x1 LB_Kim equals phi", TREq7, []float64{1}, []float64{2}, 1, false, agtrStats{boundPruned: 1}, nil, nil},
		{"eq7 1x1 LB_Kim just below phi", TREq7, []float64{1}, []float64{2}, math.Nextafter(1, 2), true, agtrStats{full: 1}, nil, nil},
		// D_task = 1 and D_time = 1, so only the sum reaches φ = 2.
		{"eq7 D_task + D_time equals phi", TREq7, []float64{1}, []float64{2}, 2, false, agtrStats{full: 1}, []float64{0}, []float64{1}},
		{"eq7 D_task + D_time just below phi", TREq7, []float64{1}, []float64{2}, math.Nextafter(2, 3), true, agtrStats{full: 1}, []float64{0}, []float64{1}},
		// Absolute cost 2; LB_Kim and every row minimum are 0.
		{"abs D equals phi", TRAbsolute, []float64{1, 1, 1}, []float64{1, 3, 1}, 2, false, agtrStats{full: 1}, nil, nil},
		{"abs D just below phi", TRAbsolute, []float64{1, 1, 1}, []float64{1, 3, 1}, math.Nextafter(2, 3), true, agtrStats{full: 1}, nil, nil},
		// LB_Kim |1-3|+|1-3| = 4 = the absolute cost.
		{"abs LB_Kim equals phi", TRAbsolute, []float64{1, 1}, []float64{3}, 4, false, agtrStats{boundPruned: 1}, nil, nil},
		{"abs LB_Kim just below phi", TRAbsolute, []float64{1, 1}, []float64{3}, math.Nextafter(4, 5), true, agtrStats{full: 1}, nil, nil},
		// Row 2 has cumulative costs (4, 4); the full cost is 4 too.
		{"abs row bound equals phi", TRAbsolute, []float64{1, 5, 1}, []float64{1, 1}, 4, false, agtrStats{abandoned: 1}, nil, nil},
		{"abs row bound just below phi", TRAbsolute, []float64{1, 5, 1}, []float64{1, 1}, math.Nextafter(4, 5), true, agtrStats{full: 1}, nil, nil},
		{"abs 1x1 LB_Kim equals phi", TRAbsolute, []float64{1}, []float64{3}, 2, false, agtrStats{boundPruned: 1}, nil, nil},
		{"abs 1x1 LB_Kim just below phi", TRAbsolute, []float64{1}, []float64{3}, math.Nextafter(2, 3), true, agtrStats{full: 1}, nil, nil},
		{"abs D_task + D_time equals phi", TRAbsolute, []float64{1}, []float64{2}, 2, false, agtrStats{full: 1}, []float64{0}, []float64{1}},
		{"abs D_task + D_time just below phi", TRAbsolute, []float64{1}, []float64{2}, math.Nextafter(2, 3), true, agtrStats{full: 1}, []float64{0}, []float64{1}},
	}
	for _, tc := range cases {
		g := AGTR{Phi: tc.phi, Mode: tc.mode}
		if tc.ta == nil {
			tc.ta, tc.tb = make([]float64, len(tc.a)), make([]float64, len(tc.b))
		}
		tasks := [][]float64{tc.a, tc.b}
		times := [][]float64{tc.ta, tc.tb}
		edges, stats, err := g.edges(context.Background(), tasks, times, tc.phi)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(edges) == 1; got != tc.edge {
			t.Errorf("%s: edge = %v, want %v (edges %v)", tc.name, got, tc.edge, edges)
		}
		if stats != tc.decision {
			t.Errorf("%s: decided by %+v, want %+v", tc.name, stats, tc.decision)
		}
	}
}

// TestAGTRIdleAccountsNeverLink is the regression test for idle accounts:
// Dissimilarity used to report 0 for two idle accounts although Group
// never links them. It is +Inf for any pair with an idle account, so the
// brute-force graph over Dissimilarity agrees with Group.
func TestAGTRIdleAccountsNeverLink(t *testing.T) {
	ds := mcs.NewDataset(2)
	ds.AddAccount(mcs.Account{ID: "idle1"})
	ds.AddAccount(mcs.Account{ID: "idle2"})
	ds.AddAccount(mcs.Account{ID: "active", Observations: []mcs.Observation{
		{Task: 0, Value: -70, Time: time.Date(2026, 7, 2, 9, 0, 0, 0, time.UTC)},
	}})
	g := AGTR{Phi: 0.3}
	for _, p := range [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 1}} {
		if d := g.Dissimilarity(ds, p[0], p[1]); !math.IsInf(d, 1) {
			t.Errorf("Dissimilarity(%d, %d) = %v, want +Inf", p[0], p[1], d)
		}
	}
	grp, err := g.Group(ds)
	if err != nil {
		t.Fatal(err)
	}
	oracle := fromComponents(graph.ThresholdBelow(3, func(i, j int) float64 {
		return g.Dissimilarity(ds, i, j)
	}, 0.3).ConnectedComponents())
	if grp.NumGroups() != 3 || !reflect.DeepEqual(grp, oracle) {
		t.Errorf("Group = %v, brute force = %v, want three singletons", grp.Groups, oracle.Groups)
	}
}

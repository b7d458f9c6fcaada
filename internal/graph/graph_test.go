package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddEdgeValidation(t *testing.T) {
	g := NewUndirected(3)
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range edge should error")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative vertex should error")
	}
	if err := g.AddEdge(1, 1, 1); err != nil {
		t.Errorf("self-loop should be silently ignored, got %v", err)
	}
	if g.Degree(1) != 0 {
		t.Error("self-loop should not add degree")
	}
	if err := g.AddEdge(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge should be bidirectional")
	}
	if g.HasEdge(0, 2) || g.HasEdge(5, 0) {
		t.Error("HasEdge false positives")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Error("degree wrong after AddEdge")
	}
	if g.Degree(17) != 0 {
		t.Error("degree of out-of-range vertex should be 0")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewUndirected(7)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 3, 4)
	// 5 and 6 isolated.
	got := g.ConnectedComponents()
	want := [][]int{{0, 1, 2}, {3, 4}, {5}, {6}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("components = %v, want %v", got, want)
	}
}

func TestConnectedComponentsEmpty(t *testing.T) {
	if got := NewUndirected(0).ConnectedComponents(); len(got) != 0 {
		t.Errorf("components of empty graph = %v", got)
	}
	if NewUndirected(-5).N() != 0 {
		t.Error("negative n should clamp to 0")
	}
}

func TestConnectedComponentsCycle(t *testing.T) {
	g := NewUndirected(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 0)
	mustEdge(t, g, 2, 3)
	got := g.ConnectedComponents()
	if len(got) != 1 || len(got[0]) != 4 {
		t.Errorf("cycle components = %v, want one of size 4", got)
	}
}

func TestThresholdAbove(t *testing.T) {
	weights := [][]float64{
		{0, 5, 1},
		{5, 0, 2},
		{1, 2, 0},
	}
	g := ThresholdAbove(3, func(i, j int) float64 { return weights[i][j] }, 1.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("edges above threshold missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("edge below threshold present")
	}
	// Strict inequality: weight == threshold excluded.
	g2 := ThresholdAbove(3, func(i, j int) float64 { return weights[i][j] }, 2)
	if g2.HasEdge(1, 2) {
		t.Error("weight == threshold should be excluded by ThresholdAbove")
	}
}

func TestThresholdBelow(t *testing.T) {
	weights := [][]float64{
		{0, 5, 1},
		{5, 0, 2},
		{1, 2, 0},
	}
	g := ThresholdBelow(3, func(i, j int) float64 { return weights[i][j] }, 1.5)
	if !g.HasEdge(0, 2) {
		t.Error("edge below threshold missing")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 2) {
		t.Error("edges above threshold present")
	}
	g2 := ThresholdBelow(3, func(i, j int) float64 { return weights[i][j] }, 2)
	if g2.HasEdge(1, 2) {
		t.Error("weight == threshold should be excluded by ThresholdBelow")
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatalf("initial count = %d, want 5", uf.Count())
	}
	if !uf.Union(0, 1) {
		t.Error("first union should merge")
	}
	if uf.Union(0, 1) {
		t.Error("repeat union should not merge")
	}
	uf.Union(1, 2)
	if uf.Count() != 3 {
		t.Errorf("count = %d, want 3", uf.Count())
	}
	if uf.Find(0) != uf.Find(2) {
		t.Error("0 and 2 should share a root")
	}
	if uf.Find(3) == uf.Find(0) {
		t.Error("3 should be separate")
	}
	comps := uf.Components()
	want := [][]int{{0, 1, 2}, {3}, {4}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("components = %v, want %v", comps, want)
	}
}

// Property: DFS components and union-find components agree on random graphs,
// and always form a partition of the vertex set.
func TestComponentsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := NewUndirected(n)
		uf := NewUnionFind(n)
		edges := rng.Intn(3 * n)
		for e := 0; e < edges; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if err := g.AddEdge(u, v, 1); err != nil {
				return false
			}
			uf.Union(u, v)
		}
		a := g.ConnectedComponents()
		b := uf.Components()
		if !reflect.DeepEqual(a, b) {
			return false
		}
		// Partition check.
		seen := make([]bool, n)
		for _, comp := range a {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func mustEdge(t *testing.T, g *Undirected, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v, 1); err != nil {
		t.Fatal(err)
	}
}

// TestPackedThresholdMatchesFunc checks that the packed-matrix builder
// produces graphs identical to the weight-function builder on random
// symmetric weights.
func TestPackedThresholdMatchesFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 5, 12} {
		packed := make([]float64, n*(n-1)/2)
		for k := range packed {
			packed[k] = rng.Float64()
		}
		weight := func(i, j int) float64 {
			return packed[i*(2*n-i-1)/2+(j-i-1)]
		}
		for _, threshold := range []float64{0.2, 0.5, 0.9} {
			wantAbove := ThresholdAbove(n, weight, threshold)
			gotAbove, err := ThresholdAbovePacked(n, packed, threshold)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantAbove.ConnectedComponents(), gotAbove.ConnectedComponents()) {
				t.Errorf("n=%d t=%.1f: packed above components differ", n, threshold)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if wantAbove.HasEdge(i, j) != gotAbove.HasEdge(i, j) {
						t.Errorf("n=%d: edge (%d,%d) mismatch", n, i, j)
					}
				}
			}
		}
	}
}

func TestPackedThresholdLengthValidation(t *testing.T) {
	if _, err := ThresholdAbovePacked(4, []float64{1, 2}, 0); err == nil {
		t.Error("short packed matrix should error")
	}
	if _, err := ThresholdAbovePacked(3, make([]float64, 5), 0); err == nil {
		t.Error("long packed matrix should error")
	}
	if _, err := ThresholdAbovePacked(1, nil, 0); err != nil {
		t.Errorf("n=1 with empty matrix should be fine: %v", err)
	}
}

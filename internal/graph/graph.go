// Package graph provides the small graph substrate shared by the AG-TS and
// AG-TR grouping methods: a weighted undirected graph over account indices,
// edge-threshold filtering, and connected-component discovery (iterative
// DFS, plus a union-find alternative used for cross-checking).
package graph

import (
	"fmt"
	"sort"
)

// Undirected is a weighted undirected graph over vertices 0..N-1.
// The zero value is unusable; construct with NewUndirected.
type Undirected struct {
	n   int
	adj [][]edge
}

type edge struct {
	to     int
	weight float64
}

// NewUndirected creates a graph with n isolated vertices.
func NewUndirected(n int) *Undirected {
	if n < 0 {
		n = 0
	}
	return &Undirected{n: n, adj: make([][]edge, n)}
}

// N returns the number of vertices.
func (g *Undirected) N() int { return g.n }

// AddEdge adds an undirected edge between u and v with the given weight.
// Self-loops are ignored. Out-of-range vertices return an error.
func (g *Undirected) AddEdge(u, v int, weight float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return nil
	}
	g.adj[u] = append(g.adj[u], edge{to: v, weight: weight})
	g.adj[v] = append(g.adj[v], edge{to: u, weight: weight})
	return nil
}

// Degree returns the number of edges incident to u (0 for out-of-range).
func (g *Undirected) Degree(u int) int {
	if u < 0 || u >= g.n {
		return 0
	}
	return len(g.adj[u])
}

// HasEdge reports whether an edge u-v exists.
func (g *Undirected) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	for _, e := range g.adj[u] {
		if e.to == v {
			return true
		}
	}
	return false
}

// ConnectedComponents returns the connected components of g using an
// iterative depth-first search. Every vertex appears in exactly one
// component; isolated vertices form singleton components. Components are
// ordered by their smallest vertex, and vertices within a component are
// sorted ascending, so the output is deterministic.
func (g *Undirected) ConnectedComponents() [][]int {
	visited := make([]bool, g.n)
	var components [][]int
	stack := make([]int, 0, g.n)
	for start := 0; start < g.n; start++ {
		if visited[start] {
			continue
		}
		var comp []int
		stack = append(stack[:0], start)
		visited[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range g.adj[u] {
				if !visited[e.to] {
					visited[e.to] = true
					stack = append(stack, e.to)
				}
			}
		}
		sort.Ints(comp)
		components = append(components, comp)
	}
	return components
}

// ThresholdAbove builds a graph over n vertices from a symmetric weight
// function, keeping edges with weight(i, j) > threshold. It evaluates
// weight once per unordered pair (i < j). Used by AG-TS, where high
// affinity means suspicious.
func ThresholdAbove(n int, weight func(i, j int) float64, threshold float64) *Undirected {
	g := NewUndirected(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := weight(i, j); w > threshold {
				// Error impossible: indices are in range by construction.
				_ = g.AddEdge(i, j, w)
			}
		}
	}
	return g
}

// ThresholdBelow builds a graph over n vertices keeping edges with
// weight(i, j) < threshold. It is the brute-force form of AG-TR's graph,
// where low dissimilarity means suspicious; AG-TR itself skips the pairs
// its DTW lower bounds rule out and adds only the edges that remain.
func ThresholdBelow(n int, weight func(i, j int) float64, threshold float64) *Undirected {
	g := NewUndirected(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := weight(i, j); w < threshold {
				_ = g.AddEdge(i, j, w)
			}
		}
	}
	return g
}

// ThresholdAbovePacked is ThresholdAbove over a precomputed packed weight
// matrix: weights holds the strict upper triangle in row-major order
// ((0,1), (0,2), ..., (n-2,n-1), as produced by parallel.Pairwise), so its
// length must be n*(n-1)/2. AG-TS fills the packed matrix in parallel and
// then builds the graph here; scanning the triangle in the same row-major
// order keeps edge insertion — and thus component discovery —
// byte-identical to the sequential weight-function path.
func ThresholdAbovePacked(n int, weights []float64, threshold float64) (*Undirected, error) {
	if want := n * (n - 1) / 2; n >= 2 && len(weights) != want {
		return nil, fmt.Errorf("graph: packed matrix has %d weights, want %d for n=%d", len(weights), want, n)
	}
	g := NewUndirected(n)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := weights[k]; w > threshold {
				_ = g.AddEdge(i, j, w)
			}
			k++
		}
	}
	return g, nil
}

// UnionFind is a disjoint-set forest with union by rank and path
// compression. It provides an independent implementation of component
// discovery used to cross-validate DFS results in tests.
type UnionFind struct {
	parent []int
	rank   []byte
	count  int
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int) *UnionFind {
	if n < 0 {
		n = 0
	}
	uf := &UnionFind{
		parent: make([]int, n),
		rank:   make([]byte, n),
		count:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the canonical representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y and reports whether a merge happened.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

// Count returns the number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }

// Components returns the sets as sorted slices, ordered by smallest member.
func (uf *UnionFind) Components() [][]int {
	byRoot := make(map[int][]int)
	for i := range uf.parent {
		r := uf.Find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	comps := make([][]int, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Ints(members)
		comps = append(comps, members)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

package grouping

import (
	"reflect"
	"runtime"
	"testing"

	"sybiltd/internal/simulate"
)

// withProcs runs fn under the given GOMAXPROCS and restores the previous
// value; goroutines multiplex fine onto fewer physical cores, so the
// parallel pairwise paths are exercised even on single-CPU machines.
func withProcs(t *testing.T, procs int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// TestGroupingParallelMatchesSequential pins the determinism guarantee of
// the parallel pairwise engine: every grouping method returns an identical
// partition at GOMAXPROCS=1 and GOMAXPROCS=8, because each pair's matrix
// slot is preassigned (AG-TR: its edges are sorted by pair rank) and the
// graph is built in row-major order.
func TestGroupingParallelMatchesSequential(t *testing.T) {
	sc, err := simulate.Build(simulate.Config{Seed: 21, NumLegit: 30, SybilActiveness: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	n := sc.Dataset.NumAccounts()
	groupers := []Grouper{
		AGTR{Phi: 0.3},
		AGTR{Mode: TRAbsolute, Phi: 3},
		AGTS{},
		AGFP{},
		AGFP{UseSilhouette: true},
		Combo{Members: []Grouper{AGFP{}, AGTS{}, AGTR{Phi: 0.3}}, Mode: CombineMajority},
	}
	for _, g := range groupers {
		var seq, par Grouping
		withProcs(t, 1, func() {
			var err error
			if seq, err = g.Group(sc.Dataset); err != nil {
				t.Fatalf("%s sequential: %v", g.Name(), err)
			}
		})
		withProcs(t, 8, func() {
			var err error
			if par, err = g.Group(sc.Dataset); err != nil {
				t.Fatalf("%s parallel: %v", g.Name(), err)
			}
		})
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: partition differs across GOMAXPROCS:\nseq: %v\npar: %v", g.Name(), seq.Groups, par.Groups)
		}
		if err := seq.Validate(n); err != nil {
			t.Errorf("%s: invalid partition: %v", g.Name(), err)
		}
	}
}

// TestAGTRPairwiseMatchesDissimilarity checks that the edges the parallel
// engine keeps agree with the per-pair Dissimilarity API the walkthrough
// experiments use.
func TestAGTRPairwiseMatchesDissimilarity(t *testing.T) {
	sc, err := simulate.Build(simulate.Config{Seed: 5, NumLegit: 6})
	if err != nil {
		t.Fatal(err)
	}
	ds := sc.Dataset
	g := AGTR{Phi: 0.3}
	grouping, err := g.Group(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := grouping.Validate(ds.NumAccounts()); err != nil {
		t.Fatal(err)
	}
	// Any pair the grouping merged must be below the threshold per the
	// public Dissimilarity; any split pair in different groups must not
	// form an edge (they can still be connected transitively, so only the
	// merged direction is a strict invariant on edges' existence).
	for _, members := range grouping.Groups {
		if len(members) < 2 {
			continue
		}
		// Connected components guarantee at least one sub-threshold edge
		// per member; check the group's closest pair is sub-threshold.
		closest := g.Dissimilarity(ds, members[0], members[1])
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				if d := g.Dissimilarity(ds, members[a], members[b]); d < closest {
					closest = d
				}
			}
		}
		if closest >= 0.3 {
			t.Errorf("group %v has no sub-threshold pair (closest %.3f)", members, closest)
		}
	}
}

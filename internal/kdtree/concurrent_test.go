package kdtree

import (
	"reflect"
	"sync"
	"testing"

	"sparkdbscan/internal/geom"
)

// TestConcurrentQueriesRaceFree pins the "immutable after Build and
// safe for concurrent queries" contract the online serving layer is
// built on: many goroutines hammer one shared tree with every query
// entry while the race detector watches, and each goroutine checks its
// answers against a single-threaded reference so a data race that
// corrupts results (not just one the detector flags) also fails.
func TestConcurrentQueriesRaceFree(t *testing.T) {
	t.Run("packed", func(t *testing.T) {
		ds := clusteredDataset(7, 3000, 4, 6, 10)
		const eps = 12.0
		tree := Build(ds)
		// Single-threaded reference answers.
		queries := 64
		wantRadius := make([][]int32, queries)
		wantCount := make([]int, queries)
		for qi := 0; qi < queries; qi++ {
			q := ds.At(int32(qi * 17 % ds.Len()))
			wantRadius[qi] = sortedCopy(tree.Radius(q, eps, nil, nil))
			wantCount[qi] = tree.RadiusCount(q, eps, nil)
		}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var out []int32
				var stats SearchStats
				for rep := 0; rep < 30; rep++ {
					qi := (g*31 + rep) % queries
					q := ds.At(int32(qi * 17 % ds.Len()))
					out = tree.Radius(q, eps, out[:0], &stats)
					if !reflect.DeepEqual(sortedCopy(out), wantRadius[qi]) {
						t.Errorf("goroutine %d: Radius(query %d) diverged under concurrency", g, qi)
						return
					}
					if c := tree.RadiusCount(q, eps, &stats); c != wantCount[qi] {
						t.Errorf("goroutine %d: RadiusCount(query %d) = %d, want %d", g, qi, c, wantCount[qi])
						return
					}
					if lim := tree.RadiusLimit(q, eps, 8, nil, &stats); len(lim) > 8 {
						t.Errorf("goroutine %d: RadiusLimit returned %d > 8", g, len(lim))
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestRadiusBatchMatchesRadius pins the batch entry to the single-query
// API: same neighbours per query, same aggregate stats, buffer reuse
// notwithstanding — and stays exact on an empty tree and an empty
// batch.
func TestRadiusBatchMatchesRadius(t *testing.T) {
	ds := clusteredDataset(11, 2000, 10, 2, 8)
	tree := Build(ds)
	const eps = 25.0
	nq := 100
	qs := make([]float64, 0, nq*ds.Dim)
	for qi := 0; qi < nq; qi++ {
		qs = append(qs, ds.At(int32(qi*13%ds.Len()))...)
	}
	var single, batch SearchStats
	want := make([][]int32, nq)
	for qi := 0; qi < nq; qi++ {
		want[qi] = sortedCopy(tree.Radius(qs[qi*ds.Dim:(qi+1)*ds.Dim], eps, nil, &single))
	}
	seen := 0
	tree.RadiusBatch(qs, ds.Dim, eps, &batch, func(qi int, nbrs []int32) {
		seen++
		if !reflect.DeepEqual(sortedCopy(nbrs), want[qi]) {
			t.Fatalf("query %d: batch neighbours diverge from Radius", qi)
		}
	})
	if seen != nq {
		t.Fatalf("visit called %d times, want %d", seen, nq)
	}
	if batch.Reported != single.Reported || batch.DistComps != single.DistComps {
		t.Fatalf("batch stats %+v != single-query stats %+v", batch, single)
	}
	// The batch band comes from the batch-wide magnitude, so node
	// traversal may differ only through exact-recheck routing — never
	// in what is reported. Degenerate inputs must not panic or visit.
	empty := Build(geom.NewDataset(0, ds.Dim))
	empty.RadiusBatch(qs[:ds.Dim], ds.Dim, eps, nil, func(qi int, nbrs []int32) {
		if len(nbrs) != 0 {
			t.Fatalf("empty tree reported %d neighbours", len(nbrs))
		}
	})
	tree.RadiusBatch(nil, ds.Dim, eps, nil, func(int, []int32) {
		t.Fatal("visit called on an empty batch")
	})
}

package core

import (
	"fmt"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/simtime"
)

// MergeAlgo selects the driver-side merge strategy. Each algorithm
// consumes the partial clusters of one Algorithm 3 seed rule; Run
// derives the rule from the merge (see seedMode).
type MergeAlgo int

const (
	// MergeCanonical is the default. It resolves the seed graph on a
	// lock-free union-find and labels canonically: components are
	// numbered by their globally lowest-index core point (each SeedExact
	// partial's Members[0]) ascending, and border points take the
	// *minimum* label among all clusters claiming them. On SeedExact
	// partials this reproduces sequential DBSCAN's labels byte for byte
	// — sequential numbers clusters by lowest core index too, and
	// expands whole clusters in label order, so a shared border always
	// keeps the lowest claiming label. Every step is a pure function of
	// the partial-cluster set, so the output cannot depend on
	// accumulator commit order or goroutine scheduling, and the passes
	// shard across MergeOptions.Workers driver cores. See DESIGN.md §13
	// and §14.
	MergeCanonical MergeAlgo = iota
	// MergePaper is Algorithm 4 exactly as printed, on SeedSingle
	// partials: a single pass over partial clusters with
	// unfinished/finished statuses, each seed pulling its master cluster
	// into the current one, and labels painted in first-appearance
	// order. It can miss transitive merges (see the merge ablation and
	// its tests). The paper figures and the ablation use it.
	MergePaper
)

func (m MergeAlgo) String() string {
	switch m {
	case MergeCanonical:
		return "canonical"
	case MergePaper:
		return "paper"
	default:
		return fmt.Sprintf("MergeAlgo(%d)", int(m))
	}
}

// seedMode returns the Algorithm 3 rule whose partial clusters the
// merge consumes: the paper's single seed per foreign partition for
// Algorithm 4, the exact contract for canonical labeling.
func (m MergeAlgo) seedMode() SeedMode {
	if m == MergePaper {
		return SeedSingle
	}
	return SeedExact
}

// perClusterReceiveOps prices the driver-side deserialization of one
// partial-cluster object arriving through the accumulator, in MergeOp
// units (~8 ms per cluster under the default model).
const perClusterReceiveOps = 6700

// MergeOptions configures the driver merge.
type MergeOptions struct {
	Algo MergeAlgo
	// MinPartialClusterSize drops partial clusters smaller than this
	// before merging — the paper's r1m filter ("we filter out those
	// partial clusters whose size is too small"). 0 keeps everything.
	MinPartialClusterSize int
	// Workers is the driver-core count the canonical merge shards
	// across: both the real goroutines that execute it and the core
	// count the phase is priced under in simtime. 0 means 1. MergePaper
	// is sequential; Run rejects it with more than one worker.
	Workers int
}

// GlobalResult is the final clustering assembled by the driver.
type GlobalResult struct {
	// Labels assigns every point a cluster id in [0, NumClusters) or
	// dbscan.Noise.
	Labels      []int32
	NumClusters int
	NumNoise    int
	// NumPartialClusters is the pre-merge count (the m the paper plots
	// in Figure 6).
	NumPartialClusters int
	// NumMerges counts partial-cluster pairs united during the merge.
	NumMerges int
	// DroppedPartials counts partial clusters removed by the size
	// filter.
	DroppedPartials int
	// Work is the metered driver-side merge cost (the paper's O(n+Km)
	// term).
	Work simtime.Work
	// SerialWork is the sub-ledger of Work that cannot leave one driver
	// core — the input to simtime's ParallelSeconds pricing. For
	// MergePaper it equals Work (everything is serial); for
	// MergeCanonical it is the single-threaded residue between the
	// sharded passes (the component sort).
	SerialWork simtime.Work
}

// Merge combines the executors' partial clusters into global clusters
// over n points.
func Merge(partials []PartialCluster, n int, opts MergeOptions) *GlobalResult {
	res := &GlobalResult{
		Labels:             make([]int32, n),
		NumPartialClusters: len(partials),
	}
	partials = receive(partials, opts, res)
	if opts.Algo == MergePaper {
		mergePaper(partials, res)
	} else {
		mergeCanonical(partials, opts.Workers, res)
	}
	return res
}

// receive charges the accumulator reception and applies the driver-side
// size filter, returning the partials that take part in the merge.
//
// Before anything can be merged or filtered, the driver deserializes
// every partial-cluster object shipped back by the executors. The
// per-cluster constant dominates the per-element cost in a JVM (object
// graph allocation, boxing); it is what makes the paper's driver time
// climb from 121 s to 2226 s as the partial-cluster count grows from
// 720 to 9279 (Fig. 6c) and what caps the total-time speedup at 32
// cores (Fig. 8d). Executor-side filtering (LocalOptions.MinClusterSize)
// avoids this cost; the driver-side filter does not. The canonical
// merge keeps the charge out of SerialWork: each shard rebuilds its own
// clusters' object graphs, so the receive parallelizes with the rest.
func receive(partials []PartialCluster, opts MergeOptions, res *GlobalResult) []PartialCluster {
	res.Work.MergeOps += int64(len(partials)) * perClusterReceiveOps
	if opts.MinPartialClusterSize <= 1 {
		return partials
	}
	kept := partials[:0:0]
	for _, pc := range partials {
		if pc.Size() >= opts.MinPartialClusterSize {
			kept = append(kept, pc)
		} else {
			res.DroppedPartials++
		}
	}
	return kept
}

// mergePaper is Algorithm 4 verbatim: one pass, current cluster absorbs
// each seed's master cluster, statuses flip from unfinished to
// finished. Seeds discovered through absorption are not re-chased in
// the same pass — that is the algorithm as printed, and the tests
// demonstrate the transitive chains it misses. Labels are then painted
// in first-appearance order. Everything runs on one driver core, so
// SerialWork is the whole ledger.
func mergePaper(partials []PartialCluster, res *GlobalResult) {
	w := &res.Work
	defer func() { res.SerialWork = res.Work }()
	for i := range res.Labels {
		res.Labels[i] = dbscan.Noise
	}
	m := len(partials)
	if m == 0 {
		res.NumNoise = len(res.Labels)
		return
	}

	// Index: point -> partial cluster owning it as a *regular member*
	// ("find master partial cluster index", Algorithm 4 line 5).
	masterOf := make([]int32, len(res.Labels))
	for i := range masterOf {
		masterOf[i] = -1
	}
	for ci := range partials {
		for _, pt := range partials[ci].Members {
			masterOf[pt] = int32(ci)
			w.MergeOps++
		}
	}

	comp := make([]int32, m)
	for i := range comp {
		comp[i] = int32(i)
	}
	finished := make([]bool, m)
	find := func(c int32) int32 {
		for comp[c] != c {
			c = comp[c]
		}
		return c
	}
	for ci := range partials {
		if finished[ci] {
			continue
		}
		for _, s := range partials[ci].Seeds {
			w.MergeOps++
			master := masterOf[s]
			if master < 0 || master == int32(ci) {
				continue
			}
			// "Merge current with master cluster" (line 6). If the
			// master was already absorbed into another cluster, its
			// elements live at its representative, so the union targets
			// that representative. What stays single-pass — and what
			// makes this weaker than the canonical merge — is that a
			// finished cluster's *own seeds* are never chased (the
			// outer status check at line 2 skips it).
			root := find(int32(ci))
			mroot := find(master)
			if root != mroot {
				comp[mroot] = root
				res.NumMerges++
			}
			finished[master] = true
		}
		finished[ci] = true
	}

	// Assemble labels: relabel components densely in order of first
	// appearance, then paint members, seeds and borders (seeds are
	// elements of the merged cluster, Figure 4b). First writer wins on
	// conflicts, mirroring sequential DBSCAN's first-come border
	// assignment.
	compLabel := make(map[int32]int32, m)
	next := int32(0)
	paint := func(pt int32, c int32) {
		w.MergeOps++
		if res.Labels[pt] != dbscan.Noise {
			return
		}
		lbl, ok := compLabel[c]
		if !ok {
			lbl = next
			compLabel[c] = lbl
			next++
		}
		res.Labels[pt] = lbl
	}
	for ci := range partials {
		c := find(int32(ci))
		for _, pt := range partials[ci].Members {
			paint(pt, c)
		}
	}
	for ci := range partials {
		c := find(int32(ci))
		for _, pt := range partials[ci].Seeds {
			paint(pt, c)
		}
		for _, pt := range partials[ci].Borders {
			paint(pt, c)
		}
	}
	res.NumClusters = int(next)
	for _, l := range res.Labels {
		if l == dbscan.Noise {
			res.NumNoise++
		}
	}
	w.MergeOps += int64(len(res.Labels)) // final label scan
}

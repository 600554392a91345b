package core

import (
	"bytes"
	"math"
	"testing"

	"sparkdbscan/internal/hdfs"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"
	"sparkdbscan/internal/trace"
)

// exactPartials runs the SeedExact local clustering over each split of
// a range partitioner and concatenates the partial clusters — the exact
// input contract the canonical merge consumes.
func exactPartials(t *testing.T, parts int, local func(s int) (*LocalResult, error)) []PartialCluster {
	t.Helper()
	var partials []PartialCluster
	for s := 0; s < parts; s++ {
		lr, err := local(s)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, lr.Clusters...)
	}
	return partials
}

// TestMergeParallelMatchesCanonicalProperty is the worker-count
// property test: across datasets × partition counts × 2/4/8 workers (±
// the size filter), the canonical merge's labels, NumMerges,
// cluster/noise counts and the full metered Work ledger are
// byte-identical to one worker — the worker count may only move derived
// time — and without the filter the labels are sequential DBSCAN's.
func TestMergeParallelMatchesCanonicalProperty(t *testing.T) {
	model := simtime.DefaultModel()
	for _, dsName := range []string{"c10k", "r10k"} {
		ds := testDataset(t, dsName, 2500)
		ref, tree := sequential(t, ds)
		for _, parts := range []int{1, 3, 8, 16} {
			part, err := NewPartitioner(ds.Len(), parts)
			if err != nil {
				t.Fatal(err)
			}
			partials := exactPartials(t, parts, func(s int) (*LocalResult, error) {
				return LocalDBSCAN(ds, tree, part, s, LocalOptions{Params: tableParams, SeedMode: SeedExact})
			})
			for _, minSize := range []int{0, 3} {
				one := Merge(partials, ds.Len(), MergeOptions{MinPartialClusterSize: minSize, Workers: 1})
				if minSize == 0 && !bytes.Equal(int32Bytes(ref.Labels), int32Bytes(one.Labels)) {
					t.Fatalf("%s parts=%d: labels differ from sequential DBSCAN", dsName, parts)
				}
				// One worker prices the whole ledger, to the last bit.
				if got, want := model.ParallelSeconds(one.Work, one.SerialWork, 1), model.Seconds(one.Work); got != want {
					t.Fatalf("%s parts=%d: one-worker price %v != Seconds(Work) %v", dsName, parts, got, want)
				}
				for _, workers := range []int{1, 2, 4, 8} {
					par := Merge(partials, ds.Len(), MergeOptions{
						MinPartialClusterSize: minSize, Workers: workers,
					})
					if !bytes.Equal(int32Bytes(one.Labels), int32Bytes(par.Labels)) {
						t.Fatalf("%s parts=%d min=%d workers=%d: labels differ from one worker",
							dsName, parts, minSize, workers)
					}
					if par.NumMerges != one.NumMerges ||
						par.NumClusters != one.NumClusters ||
						par.NumNoise != one.NumNoise ||
						par.NumPartialClusters != one.NumPartialClusters ||
						par.DroppedPartials != one.DroppedPartials {
						t.Fatalf("%s parts=%d min=%d workers=%d: counts differ:\none %+v\npar %+v",
							dsName, parts, minSize, workers, one, par)
					}
					if par.Work != one.Work {
						t.Fatalf("%s parts=%d min=%d workers=%d: Work differs:\none %+v\npar %+v",
							dsName, parts, minSize, workers, one.Work, par.Work)
					}
					if want := (simtime.Work{SortComps: one.Work.SortComps}); par.SerialWork != want {
						t.Fatalf("%s parts=%d min=%d workers=%d: SerialWork = %+v, want sort residue %+v",
							dsName, parts, minSize, workers, par.SerialWork, want)
					}
				}
			}
		}
	}
}

func int32Bytes(xs []int32) []byte {
	out := make([]byte, 0, len(xs)*4)
	for _, x := range xs {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}

// TestMergeParallelEdgeCases: inputs the property test's generated
// partials can't produce — no partials at all, seeds dangling into
// noise, memberless partials — behave at every worker count exactly as
// at the default single worker.
func TestMergeParallelEdgeCases(t *testing.T) {
	check := func(name string, partials []PartialCluster, n int) {
		t.Helper()
		seq := Merge(partials, n, MergeOptions{})
		for _, workers := range []int{1, 3, 8} {
			par := Merge(partials, n, MergeOptions{Workers: workers})
			if !bytes.Equal(int32Bytes(seq.Labels), int32Bytes(par.Labels)) {
				t.Fatalf("%s workers=%d: labels differ", name, workers)
			}
			if par.Work != seq.Work || par.NumMerges != seq.NumMerges ||
				par.NumClusters != seq.NumClusters || par.NumNoise != seq.NumNoise {
				t.Fatalf("%s workers=%d: results differ:\nseq %+v\npar %+v", name, workers, seq, par)
			}
		}
	}

	check("empty", nil, 10)
	check("dangling seed", []PartialCluster{
		{Partition: 0, Seq: 0, Members: []int32{0, 1}, Seeds: []int32{7}},
		{Partition: 1, Seq: 0, Members: []int32{4, 5}, Seeds: []int32{1}, Borders: []int32{8}},
	}, 10)
	check("memberless partial", []PartialCluster{
		{Partition: 0, Seq: 0, Members: []int32{2, 3}, Seeds: []int32{6}},
		{Partition: 1, Seq: 0, Seeds: []int32{2}, Borders: []int32{9}},
	}, 10)
	check("shared border min-claim", []PartialCluster{
		{Partition: 0, Seq: 0, Members: []int32{5}, Borders: []int32{9}},
		{Partition: 1, Seq: 0, Members: []int32{1}, Borders: []int32{9}},
		{Partition: 2, Seq: 0, Members: []int32{3}, Borders: []int32{9}},
	}, 10)
}

// TestMergeParallelFaultRecoveryByteIdentical: the journal-replay
// recovery path reuses the sharded merge, and under seeded compute +
// storage fault schedules with a driver crash mid-merge, labels stay
// byte-identical to the clean one-worker run — across worker counts and
// in both partitioning modes.
func TestMergeParallelFaultRecoveryByteIdentical(t *testing.T) {
	ds := testDataset(t, "c10k", 1500)
	for _, mode := range []PartitionMode{PartRange, PartCell} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(p *spark.FaultProfile, storage *StorageOptions, merge MergeOptions) *Result {
				sctx := spark.NewContext(spark.Config{
					Cores: 16, CoresPerExecutor: 4, Seed: 42, Faults: p,
				})
				res, err := Run(sctx, ds, Config{
					Params: tableParams, Partitions: 8, Storage: storage,
					Merge:        merge,
					Partitioning: mode, Cell: CellOptions{TargetPointsPerCell: 250},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			clean := run(nil, nil, MergeOptions{})
			for i, seed := range faultSeeds(t) {
				workers := []int{2, 8}[i%2]
				fs := hdfs.NewCluster(1<<14, 3, 6)
				if err := fs.Write("input", make([]byte, ds.SizeBytes()), nil); err != nil {
					t.Fatal(err)
				}
				fs.SetFaultProfile(&hdfs.StorageFaultProfile{
					Seed: seed, CorruptRate: 0.3, DatanodeCrashRate: 0.4,
				})
				res := run(&spark.FaultProfile{
					Seed: seed, TaskFailRate: 0.3, SlowRate: 0.2,
					ExecutorCrashRate: 0.5, MaxExecutorFailures: 6,
				}, &StorageOptions{
					FS: fs, InputFile: "input", SimulateDriverCrash: true,
				}, MergeOptions{Workers: workers})
				if !bytes.Equal(int32Bytes(clean.Global.Labels), int32Bytes(res.Global.Labels)) {
					t.Fatalf("seed %d workers %d: recovered parallel merge changed labels", seed, workers)
				}
				if res.Recovery.DriverCrashes != 1 ||
					res.Recovery.ReplayedClusters != res.Recovery.JournaledClusters {
					t.Fatalf("seed %d: replay not exactly-once: %+v", seed, res.Recovery)
				}
				if res.Global.NumMerges != clean.Global.NumMerges {
					t.Fatalf("seed %d: NumMerges %d != clean %d", seed, res.Global.NumMerges, clean.Global.NumMerges)
				}
			}
		})
	}
}

// TestMergeParallelWorkersMovePhaseTimeOnly: on a full clean run, the
// worker count changes the merge phase's simulated duration (more cores
// → shorter) while the driver Work ledger and labels stay identical;
// the default (0 workers) is priced exactly as one worker; and 8
// workers beat one by at least 2x on the phase clock.
func TestMergeParallelWorkersMovePhaseTimeOnly(t *testing.T) {
	ds := testDataset(t, "c10k", 2500)
	run := func(merge MergeOptions) (*Result, spark.Report) {
		sctx := spark.NewContext(spark.Config{Cores: 16, CoresPerExecutor: 4, Seed: 42})
		res, err := Run(sctx, ds, Config{
			Params: tableParams, Partitions: 16, Merge: merge,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, sctx.Report()
	}
	seqRes, seqRep := run(MergeOptions{})
	par1, rep1 := run(MergeOptions{Workers: 1})
	par8, rep8 := run(MergeOptions{Workers: 8})

	if !bytes.Equal(int32Bytes(seqRes.Global.Labels), int32Bytes(par8.Global.Labels)) {
		t.Fatal("labels differ between 1 and 8 merge workers")
	}
	if seqRes.Merge.Workers != 1 || par8.Merge.Workers != 8 {
		t.Fatalf("resolved merge workers %d/%d, want 1/8", seqRes.Merge.Workers, par8.Merge.Workers)
	}
	if seqRes.Phases.Merge != par1.Phases.Merge {
		t.Fatalf("default merge %v s != one worker %v s", seqRes.Phases.Merge, par1.Phases.Merge)
	}
	if rep1.DriverWork != rep8.DriverWork || seqRep.DriverWork != rep8.DriverWork {
		t.Fatalf("DriverWork depends on merge workers:\nseq  %+v\npar1 %+v\npar8 %+v",
			seqRep.DriverWork, rep1.DriverWork, rep8.DriverWork)
	}
	if par8.Phases.Merge >= par1.Phases.Merge {
		t.Fatalf("8 workers no faster than 1: %g vs %g", par8.Phases.Merge, par1.Phases.Merge)
	}
	if speedup := seqRes.Phases.Merge / par8.Phases.Merge; speedup < 2 {
		t.Fatalf("merge speedup at 8 workers = %.2fx, want >= 2x (seq %g s, par %g s)",
			speedup, seqRes.Phases.Merge, par8.Phases.Merge)
	}
	// Everything outside the merge phase is untouched.
	for name, pair := range map[string][2]float64{
		"ReadTransform": {seqRes.Phases.ReadTransform, par8.Phases.ReadTransform},
		"TreeBuild":     {seqRes.Phases.TreeBuild, par8.Phases.TreeBuild},
		"Broadcast":     {seqRes.Phases.Broadcast, par8.Phases.Broadcast},
		"Executors":     {seqRes.Phases.Executors, par8.Phases.Executors},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("phase %s moved with merge workers: %g vs %g", name, pair[0], pair[1])
		}
	}
}

// TestParallelMergeTracingDeterministic: with the merge on 8 workers
// (and a driver crash recovering through it) under a traced faulty
// run, the critical path still tiles Phases.Total() exactly, exports
// stay byte-identical across runs — real merge goroutines underneath —
// and the merge phase's share of the path drops versus one worker.
func TestParallelMergeTracingDeterministic(t *testing.T) {
	ds := testDataset(t, "c10k", 2500)
	export := func(merge MergeOptions) (*Result, []byte, []trace.Segment) {
		tr := trace.NewRecorder()
		fs := hdfs.NewCluster(1<<14, 3, 6)
		if err := fs.Write("input", make([]byte, ds.SizeBytes()), nil); err != nil {
			t.Fatal(err)
		}
		fs.SetFaultProfile(&hdfs.StorageFaultProfile{
			Seed: 11, CorruptRate: 0.3, DatanodeCrashRate: 0.4,
		})
		sctx := spark.NewContext(spark.Config{
			Cores: 16, CoresPerExecutor: 4, Seed: 42,
			Faults: &spark.FaultProfile{
				Seed: 11, TaskFailRate: 0.3, SlowRate: 0.2,
				ExecutorCrashRate: 0.5, MaxExecutorFailures: 6,
			},
			Tracer: tr,
		})
		res, err := Run(sctx, ds, Config{
			Params: tableParams, Partitions: 8, Merge: merge,
			Storage: &StorageOptions{FS: fs, InputFile: "input", SimulateDriverCrash: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		j, err := tr.ChromeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return res, j, tr.CriticalPath()
	}

	par := MergeOptions{Workers: 8}
	res, j1, segs := export(par)
	cur, sum := 0.0, 0.0
	for i, s := range segs {
		if math.Abs(s.Start-cur) > 1e-9 {
			t.Fatalf("segment %d (%s) starts at %g, previous ended at %g", i, s.Name, s.Start, cur)
		}
		cur = s.End
		sum += s.Seconds
	}
	if total := res.Phases.Total(); math.Abs(sum-total) > 1e-9 {
		t.Fatalf("critical path %.12f != Phases.Total() %.12f", sum, total)
	}
	_, j2, _ := export(par)
	if !bytes.Equal(j1, j2) {
		t.Fatal("trace JSON differs across identical parallel-merge runs")
	}

	_, _, seqSegs := export(MergeOptions{})
	if parShare, seqShare := trace.ShareByName(segs, "merge"), trace.ShareByName(seqSegs, "merge"); parShare >= seqShare {
		t.Fatalf("merge share did not drop: parallel %.3f vs sequential %.3f", parShare, seqShare)
	}
}

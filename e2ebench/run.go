package main

import (
	"fmt"
	"time"

	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/serve"
)

// Shares of the measured window per phase.
const (
	offlineShare = 0.40
	nominalShare = 0.20
	sweepShare   = 0.15
	churnShare   = 0.25
)

// ariFloor is the agreement the reconciled live model must reach with
// a from-scratch clustering of the survivors.
const ariFloor = 0.9999

// measured is everything a run's phases produced, before any check.
type measured struct {
	p       params
	window  time.Duration
	in      *inputs
	setups  []float64 // seconds per set-up
	freezes []float64 // seconds of serve.Freeze per set-up
	builds  []float64 // seconds per kdtree.Build (traced run)
	heapMB  float64
	off     *offlineRun
	fr      *frozenRun
	ch      *churnRun
	clk     *clocks // traced run only
	rec     *recorder
}

// run performs one benchmark run: measure, then check and report.
func run(p params, seed uint64, window time.Duration, traced bool) (*result, error) {
	m, err := measure(p, seed, window, traced)
	if err != nil {
		return nil, err
	}
	return m.result(), nil
}

// measure sets up p.Setups times, then runs the offline,
// frozen-serving and churn phases within window. traced selects the
// traced run, which adds the two-clock jobs and kd-tree builds.
func measure(p params, seed uint64, window time.Duration, traced bool) (*measured, error) {
	m := &measured{p: p, window: window}
	if traced {
		m.rec = newRecorder()
	}
	for i := 0; i < p.Setups; i++ {
		m.in = nil // let the previous set-up be collected
		t0 := time.Now()
		in, err := setup(p, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.in = in
		m.setups = append(m.setups, time.Since(t0).Seconds())
		m.freezes = append(m.freezes, in.freeze.Seconds())
	}

	// heap_peak_mb is the largest live heap at the end of set-up and of
	// each phase (the churn phase takes its own before the reconcile,
	// with the overlay at its largest).
	heap := []float64{liveHeapMB()}
	scale := func(share float64) time.Duration { return time.Duration(share * float64(window)) }
	var err error
	if m.off, err = runOffline(m.in, p, seed, scale(offlineShare), m.rec); err != nil {
		return nil, err
	}
	heap = append(heap, liveHeapMB())
	m.fr = runFrozen(m.in, p, scale(nominalShare), scale(sweepShare), m.rec)
	heap = append(heap, liveHeapMB())
	m.ch = runChurn(m.in, p, seed, scale(churnShare), m.rec)
	heap = append(heap, m.ch.heapMB, liveHeapMB())
	for _, h := range heap {
		m.heapMB = max(m.heapMB, h)
	}

	if traced {
		if m.clk, err = runClocks(m.in, p, seed, m.rec); err != nil {
			return nil, err
		}
		for i := 0; i < 3; i++ {
			sp := m.rec.open("kdtree.Build", openSpan{})
			t0 := time.Now()
			kdtree.Build(m.in.ds)
			m.builds = append(m.builds, time.Since(t0).Seconds())
			m.rec.close(sp)
		}
	}
	return m, nil
}

// result checks every output and computes the metrics. Each failed
// check counts against fail_frac.
func (m *measured) result() *result {
	in, p, rec := m.in, m.p, m.rec
	res := &result{Params: p, Seconds: m.window.Seconds(), Traced: rec != nil, rec: rec,
		Failures: map[string]int{}, EndToEnd: map[string]metric{}, Reported: map[string]metric{},
		Dists: map[string]dist{}}

	sp := rec.open("serve.Model.AssignBatch", openSpan{})
	expect := make([]serve.Assignment, len(in.bank)/in.ds.Dim)
	in.model.AssignBatch(in.bank, expect)
	rec.close(sp)
	fail := func(what string, attempted, failed int) {
		res.Attempted += attempted
		res.Failed += failed
		res.Failures[what] += failed
	}
	fail("job_labels", len(m.off.jobs), m.off.verify(in, p, rec))
	if m.clk != nil {
		fail("clock_job_labels", 4, m.clk.verify(in, p, rec))
	}
	for _, lr := range m.fr.nominal {
		fail("frozen_unanswered", len(lr.ok), lr.unanswered())
		fail("frozen_wrong", 0, lr.wrong(expect))
	}
	for _, lr := range m.fr.sweep {
		// A sweep step probes overload: its shed reads decide the step
		// and are not failures, but a wrong answer is.
		fail("sweep_wrong", len(lr.ok)-lr.unanswered(), lr.wrong(expect))
	}
	ch := m.ch
	fail("churn_unanswered", len(ch.reads.ok), ch.reads.unanswered())
	fail("write_errors", len(ch.writes), ch.writeErrors)
	ariBad := 0
	if ch.reconcileErr != nil || ch.ariErr != nil || ch.ari < ariFloor {
		ariBad = 1
	}
	fail("reconcile_ari", 1, ariBad)

	res.endToEnd(m.setups, m.heapMB, m.off, m.fr, ch)
	if rec != nil {
		res.PerLayer = map[string]metric{}
		res.perLayer(in, p, m.freezes, m.builds, m.off, m.fr, ch, m.clk)
	}
	return res
}

func seconds(jobs []job, f func(job) time.Duration) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = f(j).Seconds()
	}
	return out
}

// endToEnd computes the gated metrics (medians) and the reported ones.
// The tails are reported but not gated: on a shared two-vCPU host a
// few milliseconds of descheduling put p99 anywhere from tens of
// microseconds to milliseconds from one run to the next, wider than
// any bound the benchmark may set.
func (r *result) endToEnd(setups []float64, heapMB float64, off *offlineRun, fr *frozenRun, ch *churnRun) {
	m, rep := r.EndToEnd, r.Reported
	r.Dists["setup_s"] = summarize(append([]float64(nil), setups...))
	r.put(m, "setup_s", "s", median(setups))
	r.put(m, "heap_peak_mb", "MB", heapMB)

	jobs := off.timed(false)
	wall := summarize(seconds(jobs, func(j job) time.Duration { return j.wall }))
	r.Dists["job_wall_s"] = wall
	r.put(m, "job_wall_s", "s", wall.P50)
	// The simulated clock has no host noise; jobs differ only in their
	// straggler draws, which often leave the makespan alone. A median
	// would then read the same in every run, so the mean is reported.
	var sim float64
	for _, j := range jobs {
		sim += j.res.Phases.Total() / float64(len(jobs))
	}
	r.put(m, "job_sim_s", "s", sim)

	read := summarize(fr.nominal[0].latencies())
	r.Dists["read_us"] = read
	r.put(m, "read_p50_us", "us", read.P50)
	r.put(rep, "read_p99_us", "us", fr.nominal[0].tailP99())
	r.Sweep = fr.steps
	r.put(rep, "max_qps_at_slo", "1/s", fr.maxQPS)
	r.put(rep, "fail_frac", "ratio", float64(r.Failed)/float64(r.Attempted))

	churn := summarize(ch.reads.latencies())
	r.Dists["churn_read_us"] = churn
	r.put(m, "churn_read_p50_us", "us", churn.P50)
	r.put(rep, "churn_read_p99_us", "us", ch.reads.tailP99())
	writes := summarize(append([]float64(nil), ch.writes...))
	r.Dists["write_us"] = writes
	r.put(m, "write_p50_us", "us", writes.P50)
	r.put(rep, "write_p99_us", "us", quantile(append([]float64(nil), ch.writes...), 0.99))
	r.Dists["reconcile_s"] = summarize(append([]float64(nil), ch.reconcile...))
	r.put(m, "reconcile_s", "s", median(ch.reconcile))
}

func (r *result) perLayer(in *inputs, p params, freezes, builds []float64, off *offlineRun, fr *frozenRun, ch *churnRun, clk *clocks) {
	m := r.PerLayer
	all := off.jobs[1:]
	parse := median(seconds(all, func(j job) time.Duration { return j.parse }))
	r.put(m, "geom.parse_s", "s", parse)
	r.put(m, "geom.parse_mb_per_s", "MB/s", float64(len(in.input))/1e6/parse)

	own := all[0].res
	r.put(m, "kdtree.build_s", "s", median(builds))
	r.put(m, "kdtree.nodes_visited", "count", float64(own.Stats.NodesVisited))
	r.put(m, "kdtree.dist_comps", "count", float64(own.Stats.DistComps))
	r.put(m, "kdtree.reported_per_dist_comp", "ratio", float64(own.Stats.Reported)/float64(own.Stats.DistComps))

	real := clk.real[p.partitioning()]
	wall := phaseValues(real.res.Phases)
	sim := phaseValues(own.Phases)
	for i, name := range layerNames[:len(layerNames)-1] {
		r.put(m, "core.wall."+name+"_s", "s", wall[i])
		r.put(m, "core.sim."+name+"_s", "s", sim[i])
	}
	r.put(m, "core.wall.unattributed_s", "s", real.unattributed())
	r.put(m, "core.partials", "count", float64(own.Global.NumPartialClusters))
	r.put(m, "core.merges", "count", float64(own.Global.NumMerges))
	r.put(m, "core.halo_points", "count", float64(own.Dist.HaloPoints))
	r.put(m, "core.shuffle_mb", "MB", float64(own.Dist.ShuffleBytes)/1e6)
	r.put(m, "core.broadcast_mb_per_executor", "MB", float64(own.Dist.BroadcastBytes)/1e6)
	var stretch []float64
	for _, j := range off.timed(true) {
		stretch = append(stretch, j.stretch)
	}
	r.put(m, "spark.stretch", "ratio", median(stretch))

	st := fr.stats
	r.put(m, "serve.freeze_s", "s", median(freezes))
	r.put(m, "serve.server_p50_us", "us", micros(st.LatencyP50))
	r.put(m, "serve.server_p99_us", "us", micros(st.LatencyP99))
	r.put(m, "serve.mean_batch", "count", st.MeanBatch)
	r.put(m, "serve.queue_delay_ewma_us", "us", micros(st.QueueDelayEWMA))
	r.put(m, "serve.shed", "count", float64(st.Shed))

	r.put(m, "serve.max_qps_at_slo", "1/s", fr.maxQPS)
	r.put(m, "live.insert_p99_us", "us", quantile(ch.writeLatencies(false), 0.99))
	r.put(m, "live.delete_p99_us", "us", quantile(ch.writeLatencies(true), 0.99))
	r.put(m, "live.server_p99_us", "us", ch.serverP99)
	r.put(m, "live.overlay", "count", float64(ch.stats.Overlay))
	r.put(m, "live.tombstones", "count", float64(ch.stats.Tombstones))
	r.put(m, "live.epochs", "count", float64(ch.stats.Epoch))
	r.put(m, "live.delta_radius_us", "us", ch.deltaRadius)
	r.put(m, "live.reconcile_points", "count", float64(ch.reconciled.Points))

	var lag []float64
	var backlog int64
	for _, lr := range fr.nominal {
		for _, l := range lr.lag {
			lag = append(lag, micros(l))
		}
		backlog = max(backlog, lr.backlog)
	}
	r.put(m, "loadgen.lag_p99_us", "us", quantile(lag, 0.99))
	r.put(m, "loadgen.backlog_max", "count", float64(backlog))

	r.Clocks = clk.table()
	total := r.Clocks[len(r.Clocks)-1]
	r.put(m, "clock.cell_over_range_wall", "ratio", total.CellWall/total.RangeWall)
	r.put(m, "clock.cell_over_range_sim", "ratio", total.CellSim/total.RangeSim)
	same := 0.0
	if total.SameRank == "true" {
		same = 1
	}
	r.put(m, "clock.same_rank", "bool", same)

	self := r.rec.selfSeconds()
	for _, l := range []string{"bench", "geom", "spark", "core", "kdtree", "dbscan", "serve", "live", "eval"} {
		r.put(m, "self."+l+"_s", "s", self[l])
	}
	tj := median(seconds(off.timed(true), func(j job) time.Duration { return j.wall }))
	uj := median(seconds(off.timed(false), func(j job) time.Duration { return j.wall }))
	r.put(m, "trace.overhead_job_s", "s", tj-uj)
	r.put(m, "trace.overhead_read_p50_us", "us", median(fr.nominal[1].latencies())-median(fr.nominal[0].latencies()))
}

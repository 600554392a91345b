package main

import (
	"bytes"
	"fmt"
	"time"

	"sparkdbscan/internal/core"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/rng"
	"sparkdbscan/internal/spark"
	"sparkdbscan/internal/trace"
)

// job is one offline run: input bytes → parse → core.Run → labels.
type job struct {
	wall    time.Duration // input bytes to labels
	parse   time.Duration
	coreRun time.Duration // the span around core.Run
	traced  bool
	res     *core.Result
	stretch float64 // executor-stage makespan over its balanced bound (traced virtual jobs)
}

func (p params) partitioning() core.PartitionMode {
	if p.Workload == "range" {
		return core.PartRange
	}
	return core.PartCell
}

// runJob runs one job of mode part on the virtual cluster (mode
// spark.Virtual, p.Cores cores) or on the host (spark.Real, nproc
// cores); stragglers draws the virtual cluster's stragglers. With rec
// set it records spans and attaches a trace.Recorder.
func runJob(in *inputs, p params, part core.PartitionMode, mode spark.Mode, stragglers uint64, rec *recorder) (job, error) {
	j := job{traced: rec != nil}
	root := rec.open("bench.job", openSpan{})
	t0 := time.Now()

	sp := rec.open("geom.Read", root)
	var ds *geom.Dataset
	var err error
	if part == core.PartRange {
		ds, err = geom.ReadText(bytes.NewReader(in.input))
	} else {
		ds, err = geom.ReadBinary(bytes.NewReader(in.input))
	}
	j.parse = time.Since(t0)
	rec.close(sp)
	if err != nil {
		return j, fmt.Errorf("parse input: %w", err)
	}

	cfg := spark.Config{Cores: p.Cores, Mode: mode, Seed: stragglers, HostParallelism: nproc}
	if mode == spark.Real {
		cfg.Cores = nproc
	}
	var tr *trace.Recorder
	if rec != nil && mode == spark.Virtual {
		tr = trace.NewRecorder()
		cfg.Tracer = tr
	}
	sp = rec.open("spark.NewContext", root)
	sctx := spark.NewContext(cfg)
	rec.close(sp)

	sp = rec.open("core.Run", root)
	tc := time.Now()
	j.res, err = core.Run(sctx, ds, core.Config{
		Params:       p.dbscan(),
		Partitions:   p.Partitions,
		Merge:        core.MergeOptions{Algo: core.MergeCanonical},
		Partitioning: part,
	})
	j.coreRun = time.Since(tc)
	j.wall = time.Since(t0)
	rec.close(sp)
	rec.close(root)
	if err != nil {
		return j, fmt.Errorf("core.Run: %w", err)
	}
	if tr != nil {
		var secs, ideal float64
		for _, st := range tr.Metrics().Stages {
			secs += st.Seconds
			ideal += st.Ideal
		}
		if ideal > 0 {
			j.stretch = secs / ideal
		}
	}
	return j, nil
}

// offlineRun is the offline phase of one run.
type offlineRun struct {
	jobs []job // warm-up first
}

// runOffline runs one warm-up job, then jobs until window has passed
// (at least three). With rec set, traced and untraced jobs alternate so
// the tracing overhead is measured under the same conditions. Each job
// draws its own stragglers, so the median simulated time is a median
// over draws rather than one draw.
func runOffline(in *inputs, p params, seed uint64, window time.Duration, rec *recorder) (*offlineRun, error) {
	o := &offlineRun{}
	end := time.Now().Add(window)
	for i := 0; i < 4 || time.Now().Before(end); i++ {
		var r *recorder
		if i%2 == 1 {
			r = rec
		}
		j, err := runJob(in, p, p.partitioning(), spark.Virtual, rng.Hash64(seed+uint64(i)), r)
		if err != nil {
			return nil, err
		}
		o.jobs = append(o.jobs, j)
	}
	return o, nil
}

// timed returns the jobs after the warm-up that ran traced, or untraced.
func (o *offlineRun) timed(traced bool) []job {
	var out []job
	for _, j := range o.jobs[1:] {
		if j.traced == traced {
			out = append(out, j)
		}
	}
	return out
}

// verify checks every job's labels against the sequential reference
// (exact cores, exact noise, valid borders) and returns the number of
// failed jobs.
func (o *offlineRun) verify(in *inputs, p params, rec *recorder) int {
	failed := 0
	for _, j := range o.jobs {
		if !labelsEquivalent(in, p, j.res.Global.Labels, rec) {
			failed++
		}
	}
	return failed
}

func labelsEquivalent(in *inputs, p params, labels []int32, rec *recorder) bool {
	sp := rec.open("eval.EquivCheck", openSpan{})
	rep, err := eval.EquivCheck(in.ds, in.ref, labels, p.dbscan(), in.tree)
	rec.close(sp)
	return err == nil && rep.Exact()
}

// phaseRow is one offline layer on both clocks for both partitionings.
type phaseRow struct {
	Layer     string  `json:"layer"`
	RangeWall float64 `json:"range_wall_s"`
	RangeSim  float64 `json:"range_sim_s"`
	CellWall  float64 `json:"cell_wall_s"`
	CellSim   float64 `json:"cell_sim_s"`
	SameRank  string  `json:"same_rank"` // "true", "false", or "n/a" where a clock shows no difference
}

var layerNames = []string{"read", "plan", "tree", "broadcast", "executors", "merge", "total"}

func phaseValues(ph core.Phases) []float64 {
	return []float64{ph.ReadTransform, ph.Plan, ph.TreeBuild, ph.Broadcast, ph.Executors, ph.Merge, ph.Total()}
}

// clocks holds the traced run's two-clock comparison: one virtual and
// one Real-mode job of each partitioning.
type clocks struct {
	virtual, real map[core.PartitionMode]job
}

func runClocks(in *inputs, p params, seed uint64, rec *recorder) (*clocks, error) {
	c := &clocks{virtual: map[core.PartitionMode]job{}, real: map[core.PartitionMode]job{}}
	for _, part := range []core.PartitionMode{core.PartRange, core.PartCell} {
		// The other partitioning reads the same points from its own
		// input format.
		qin := *in
		if part != p.partitioning() {
			var err error
			if qin.input, err = encode(in.ds, part); err != nil {
				return nil, err
			}
		}
		v, err := runJob(&qin, p, part, spark.Virtual, seed, rec)
		if err != nil {
			return nil, err
		}
		r, err := runJob(&qin, p, part, spark.Real, seed, rec)
		if err != nil {
			return nil, err
		}
		c.virtual[part], c.real[part] = v, r
	}
	return c, nil
}

// table lays the wall column (Real-mode phases) beside the simulated
// column for every offline layer, and says whether the two clocks rank
// range and cell the same way. Only within-run ratios are compared.
func (c *clocks) table() []phaseRow {
	rw := phaseValues(c.real[core.PartRange].res.Phases)
	rs := phaseValues(c.virtual[core.PartRange].res.Phases)
	cw := phaseValues(c.real[core.PartCell].res.Phases)
	cs := phaseValues(c.virtual[core.PartCell].res.Phases)
	// The simulated clock attributes all of a job to its phases; on the
	// wall clock, part of core.Run lies outside every Phases field, so
	// the wall total is the span around core.Run.
	names := append(layerNames[:len(layerNames)-1:len(layerNames)-1], "unattributed", "total")
	last := len(rw) - 1
	rw = append(rw[:last], c.real[core.PartRange].unattributed(), c.real[core.PartRange].coreRun.Seconds())
	cw = append(cw[:last], c.real[core.PartCell].unattributed(), c.real[core.PartCell].coreRun.Seconds())
	rs = append(rs[:last], 0, rs[last])
	cs = append(cs[:last], 0, cs[last])
	rows := make([]phaseRow, len(names))
	for i, name := range names {
		rows[i] = phaseRow{Layer: name, RangeWall: rw[i], RangeSim: rs[i], CellWall: cw[i], CellSim: cs[i],
			SameRank: "n/a"}
		if rw[i] != cw[i] && rs[i] != cs[i] {
			rows[i].SameRank = fmt.Sprint((cw[i] < rw[i]) == (cs[i] < rs[i]))
		}
	}
	return rows
}

// unattributed is the part of the span around core.Run that no Phases
// field covers (meaningful for Real-mode jobs, whose phases are wall
// seconds).
func (j job) unattributed() float64 { return j.coreRun.Seconds() - j.res.Phases.Total() }

func (c *clocks) verify(in *inputs, p params, rec *recorder) int {
	failed := 0
	for _, m := range []map[core.PartitionMode]job{c.virtual, c.real} {
		for _, j := range m {
			if !labelsEquivalent(in, p, j.res.Global.Labels, rec) {
				failed++
			}
		}
	}
	return failed
}

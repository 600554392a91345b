package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/rng"
	"sparkdbscan/internal/serve"
)

// The serving benchmark measures the online layer on the host wall
// clock (unlike the simulated-time experiments): freeze one clustering
// into a serve.Model, then drive a Server with serve.RunLoad's closed
// and open loops.
//
// The closed-loop grid answers the design question behind the worker
// pool: how does throughput scale with workers, and what does adaptive
// micro-batching buy over single-query dispatch at each width? The
// open-loop arms answer the operational one: what are the tail
// latencies at a sustainable offered load, and does backpressure hold
// (shed, not collapse) past saturation?

// ServeBenchCell is one closed-loop arm of the (workers × batch cap)
// grid.
type ServeBenchCell struct {
	Workers   int     `json:"workers"`
	BatchCap  int     `json:"batch_cap"`
	Clients   int     `json:"clients"`
	Seconds   float64 `json:"seconds"`
	Completed uint64  `json:"completed"`
	QPS       float64 `json:"qps"`
	MeanBatch float64 `json:"mean_batch"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	P999us    float64 `json:"p999_us"`
	// SpeedupVsUnbatched compares this arm's QPS to the BatchCap=1 arm
	// at the same worker count (1 for the unbatched arms themselves).
	SpeedupVsUnbatched float64 `json:"speedup_vs_unbatched"`
}

// ServeOpenCell is one open-loop arm: fixed offered load against the
// widest batched server.
type ServeOpenCell struct {
	Name        string  `json:"name"`
	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	Issued      uint64  `json:"issued"`
	Completed   uint64  `json:"completed"`
	Shed        uint64  `json:"shed"`
	ShedFrac    float64 `json:"shed_frac"`
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	P999us      float64 `json:"p999_us"`
}

// ServeBenchReport is the BENCH_serve.json payload.
type ServeBenchReport struct {
	Method      string           `json:"method"`
	GoOS        string           `json:"goos"`
	GoArch      string           `json:"goarch"`
	MaxProcs    int              `json:"maxprocs"`
	Smoke       bool             `json:"smoke"`
	Points      int              `json:"points"`
	Dim         int              `json:"dim"`
	Eps         float64          `json:"eps"`
	MinPts      int              `json:"minpts"`
	NumClusters int              `json:"clusters"`
	NumCore     int              `json:"core_points"`
	FreezeMs    float64          `json:"freeze_ms"`
	Closed      []ServeBenchCell `json:"closed_loop"`
	Open        []ServeOpenCell  `json:"open_loop"`
}

func usQ(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// servingDataset is the wall-clock benches' corpus (serve, chaos,
// live), the same shape as the kd-tree microbenchmarks: Table-I-shaped
// clusters (n/1000 clusters of ~1000 points, σ=8) in a 1000-unit box.
func servingDataset(n, dim int) *geom.Dataset {
	clusters := n / 1000
	if clusters < 1 {
		clusters = 1
	}
	r := rng.New(uint64(n + dim))
	ds := geom.NewDataset(n, dim)
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = r.Float64() * 1000
		}
	}
	for i := 0; i < n; i++ {
		c := centers[i%clusters]
		for j := 0; j < dim; j++ {
			ds.Coords[i*dim+j] = c[j] + r.NormFloat64()*8
		}
	}
	return ds
}

// RunServeBench benchmarks the serving layer and, when jsonPath is
// non-empty, writes the report there. smoke shrinks every knob so the
// whole run fits in a couple of seconds (the CI configuration).
func RunServeBench(w io.Writer, jsonPath string, points int, smoke bool) error {
	if points <= 0 {
		points = 20_000
	}
	armDur := 400 * time.Millisecond
	workerSweep := []int{1, 2, 4, 8}
	if smoke {
		if points > 4000 {
			points = 4000
		}
		armDur = 100 * time.Millisecond
		workerSweep = []int{1, 4}
	}
	const (
		dim    = 10
		minPts = 5
		// Tighter than Table I's eps=25 on purpose: ~45-point serving
		// neighbourhoods keep per-query tree work in the regime where
		// dispatch overhead is visible, which is the regime
		// micro-batching exists for (at eps=25 a query returns ~100
		// neighbours and scan time dominates any batching effect).
		eps = 22.0
	)
	ds := servingDataset(points, dim)
	tree := kdtree.Build(ds)
	p := dbscan.Params{Eps: eps, MinPts: minPts}
	res, err := dbscan.Run(ds, tree, p)
	if err != nil {
		return err
	}
	start := time.Now()
	model, err := serve.Freeze(ds, res.Labels, res.Core, tree, p)
	if err != nil {
		return err
	}
	report := ServeBenchReport{
		Method: "closed loop: N clients issue back-to-back queries for the arm duration, " +
			"fresh server per arm; open loop: fixed-rate arrivals against the widest batched server; " +
			"latency quantiles from the server's enqueue-to-response histogram",
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		MaxProcs:    runtime.GOMAXPROCS(0),
		Smoke:       smoke,
		Points:      ds.Len(),
		Dim:         dim,
		Eps:         eps,
		MinPts:      minPts,
		NumClusters: res.NumClusters,
		NumCore:     model.NumCore(),
		FreezeMs:    float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	workload := serve.DatasetWorkload(ds)

	tw := newTabWriter(w)
	fmt.Fprintln(tw, "arm\tworkers\tbatch\tclients\tqps\tmean batch\tp50 µs\tp99 µs\tp999 µs\tvs unbatched")
	unbatchedQPS := map[int]float64{}
	var bestBatched ServeBenchCell
	for _, workers := range workerSweep {
		for _, batchCap := range []int{1, 32} {
			clients := 8 * workers
			srv := serve.NewServer(model, serve.Options{
				Workers:  workers,
				BatchCap: batchCap,
				// Identical admission capacity for both batch arms — the
				// default scales with BatchCap, which would confound the
				// comparison with shedding differences.
				QueueCap:      64 * workers,
				MaxQueueDelay: -1, // capacity measurement: answer everything
			})
			rep := serve.RunLoad(srv, workload, serve.LoadOptions{Clients: clients, Duration: armDur})
			st := srv.Stats()
			srv.Close()
			cell := ServeBenchCell{
				Workers:   workers,
				BatchCap:  batchCap,
				Clients:   clients,
				Seconds:   rep.Duration.Seconds(),
				Completed: rep.Completed,
				QPS:       rep.AchievedQPS,
				MeanBatch: st.MeanBatch,
				P50us:     usQ(st.LatencyP50),
				P99us:     usQ(st.LatencyP99),
				P999us:    usQ(st.LatencyP999),
			}
			if batchCap == 1 {
				unbatchedQPS[workers] = cell.QPS
				cell.SpeedupVsUnbatched = 1
			} else {
				cell.SpeedupVsUnbatched = cell.QPS / unbatchedQPS[workers]
				if cell.QPS > bestBatched.QPS {
					bestBatched = cell
				}
			}
			report.Closed = append(report.Closed, cell)
			fmt.Fprintf(tw, "closed\t%d\t%d\t%d\t%.0f\t%.1f\t%.0f\t%.0f\t%.0f\t%.2fx\n",
				cell.Workers, cell.BatchCap, cell.Clients, cell.QPS, cell.MeanBatch,
				cell.P50us, cell.P99us, cell.P999us, cell.SpeedupVsUnbatched)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Open loop against the best batched configuration: one arm at 60%
	// of its measured closed-loop capacity (the latency story) and one
	// at 150% (the backpressure story — the server must shed the
	// excess, not let latency grow without bound).
	openArms := []struct {
		name string
		frac float64
	}{{"sustainable-0.6x", 0.6}, {"overload-1.5x", 1.5}}
	tw = newTabWriter(w)
	fmt.Fprintln(tw, "arm\ttarget qps\tachieved\tshed %\tp50 µs\tp99 µs\tp999 µs")
	for _, arm := range openArms {
		srv := serve.NewServer(model, serve.Options{
			Workers:       bestBatched.Workers,
			BatchCap:      bestBatched.BatchCap,
			MaxQueueDelay: 5 * time.Millisecond,
		})
		rate := arm.frac * bestBatched.QPS
		rep := serve.RunLoad(srv, workload, serve.LoadOptions{QPS: rate, Duration: armDur})
		st := srv.Stats()
		srv.Close()
		cell := ServeOpenCell{
			Name:        arm.name,
			TargetQPS:   rate,
			AchievedQPS: rep.AchievedQPS,
			Issued:      rep.Issued,
			Completed:   rep.Completed,
			Shed:        rep.Shed,
			P50us:       usQ(st.LatencyP50),
			P99us:       usQ(st.LatencyP99),
			P999us:      usQ(st.LatencyP999),
		}
		if rep.Issued > 0 {
			cell.ShedFrac = float64(rep.Shed) / float64(rep.Issued)
		}
		report.Open = append(report.Open, cell)
		fmt.Fprintf(tw, "open %s\t%.0f\t%.0f\t%.1f%%\t%.0f\t%.0f\t%.0f\n",
			cell.Name, cell.TargetQPS, cell.AchievedQPS, 100*cell.ShedFrac,
			cell.P50us, cell.P99us, cell.P999us)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s\n", jsonPath)
	return nil
}

package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/serve"
)

// The chaos benchmark measures the resilience layer: one clean arm for
// baseline, then one arm per injected fault kind, each driven by the
// same seeded ChaosProfile discipline the tests use. Every arm reports
// the outcome taxonomy and the supervision/hedging counters, and the
// single-fault arms carry hard gates (checked at the end, after the
// JSON report is written, so a gate failure still leaves the evidence
// on disk):
//
//   - availability >= 99% under worker kills (supervised), stalls and
//     dropped responses;
//   - hedging improves p99 under slow workers without exceeding the
//     retry budget's hard bound (primaries·HedgeBudget + HedgeBurst);
//   - under overload-driven brownout, high-priority traffic fares at
//     least as well as low-priority traffic and the health ladder
//     actually engaged.
//
// The contrast arm (kills with supervision off) has no gate: it exists
// to show the availability collapse the supervisor prevents.

// ChaosArm is one benchmark arm's row in BENCH_chaos.json.
type ChaosArm struct {
	Name  string `json:"name"`
	Fault string `json:"fault"`

	Issued       uint64  `json:"issued"`
	Completed    uint64  `json:"completed"`
	HedgeWon     uint64  `json:"hedge_won"`
	Shed         uint64  `json:"shed"`
	Canceled     uint64  `json:"canceled"`
	Panicked     uint64  `json:"panicked"`
	Availability float64 `json:"availability"`

	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`

	WorkerDeaths      uint64 `json:"worker_deaths"`
	WorkerStalls      uint64 `json:"worker_stalls"`
	Respawns          uint64 `json:"respawns"`
	Dropped           uint64 `json:"dropped"`
	Hedges            uint64 `json:"hedges"`
	HedgeWins         uint64 `json:"hedge_wins"`
	HedgeDenied       uint64 `json:"hedge_denied"`
	ShedPriority      uint64 `json:"shed_priority"`
	HealthTransitions uint64 `json:"health_transitions"`

	Gate string `json:"gate,omitempty"` // "pass", "FAIL: ...", or empty (ungated)
}

// ChaosBenchReport is the BENCH_chaos.json payload.
type ChaosBenchReport struct {
	Method   string `json:"method"`
	GoOS     string `json:"goos"`
	GoArch   string `json:"goarch"`
	MaxProcs int    `json:"maxprocs"`
	Smoke    bool   `json:"smoke"`

	Points int     `json:"points"`
	Dim    int     `json:"dim"`
	Eps    float64 `json:"eps"`
	MinPts int     `json:"minpts"`

	// Seed drives every arm's ChaosProfile; ScheduleDigest is an FNV-1a
	// hash of a canonical rendered fault schedule under this seed —
	// byte-identical schedule ⇒ identical digest across runs, the
	// determinism artifact the acceptance criteria ask for.
	Seed           uint64 `json:"chaos_seed"`
	ScheduleDigest string `json:"schedule_digest"`

	Arms []ChaosArm `json:"arms"`
}

func armFromLoad(name, fault string, rep serve.LoadReport, st serve.Stats) ChaosArm {
	return ChaosArm{
		Name:  name,
		Fault: fault,

		Issued:       rep.Issued,
		Completed:    rep.Completed,
		HedgeWon:     rep.HedgeWon,
		Shed:         rep.Shed,
		Canceled:     rep.Canceled,
		Panicked:     rep.Panicked,
		Availability: rep.Availability,

		P50us:  usQ(st.LatencyP50),
		P99us:  usQ(st.LatencyP99),
		P999us: usQ(st.LatencyP999),

		WorkerDeaths:      st.WorkerDeaths,
		WorkerStalls:      st.WorkerStalls,
		Respawns:          st.Respawns,
		Dropped:           st.Dropped,
		Hedges:            st.Hedges,
		HedgeWins:         st.HedgeWins,
		HedgeDenied:       st.HedgeDenied,
		ShedPriority:      st.ShedPriority,
		HealthTransitions: st.HealthTransitions,
	}
}

// RunChaosBench benchmarks the resilience layer under seeded fault
// injection and, when jsonPath is non-empty, writes BENCH_chaos.json
// there. It returns an error if any gated arm fails its gate. smoke
// shrinks the dataset and arm durations to the CI configuration; seed
// 0 selects the default chaos profile seed, 53.
func RunChaosBench(w io.Writer, jsonPath string, points int, seed uint64, smoke bool) error {
	if points <= 0 {
		points = 20_000
	}
	if seed == 0 {
		seed = 53
	}
	armDur := 400 * time.Millisecond
	if smoke {
		if points > 4000 {
			points = 4000
		}
		armDur = 150 * time.Millisecond
	}
	const (
		dim    = 10
		minPts = 5
		eps    = 22.0 // the serving regime -servebench measures in
	)
	ds := servingDataset(points, dim)
	tree := kdtree.Build(ds)
	p := dbscan.Params{Eps: eps, MinPts: minPts}
	res, err := dbscan.Run(ds, tree, p)
	if err != nil {
		return err
	}
	model, err := serve.Freeze(ds, res.Labels, res.Core, tree, p)
	if err != nil {
		return err
	}
	workload := serve.DatasetWorkload(ds)

	canonical := serve.ChaosProfile{Seed: seed, KillRate: 0.05, StallRate: 0.05, SlowRate: 0.1, PanicRate: 0.1}
	digest := fnv.New64a()
	digest.Write([]byte(canonical.Schedule(4, 256)))

	report := ChaosBenchReport{
		Method: "closed-loop load per arm against a fresh server, one injected fault kind per arm " +
			"(same seeded deterministic schedule discipline as the tests); availability = completed/issued; " +
			"latency quantiles from the server's enqueue-to-response histogram",
		GoOS:           runtime.GOOS,
		GoArch:         runtime.GOARCH,
		MaxProcs:       runtime.GOMAXPROCS(0),
		Smoke:          smoke,
		Points:         ds.Len(),
		Dim:            dim,
		Eps:            eps,
		MinPts:         minPts,
		Seed:           seed,
		ScheduleDigest: fmt.Sprintf("fnv1a:%016x", digest.Sum64()),
	}

	// runArm drives one closed-loop load against a fresh server.
	runArm := func(name, fault string, opts serve.Options, load serve.LoadOptions) ChaosArm {
		srv := serve.NewServer(model, opts)
		load.Duration = armDur
		rep := serve.RunLoad(srv, workload, load)
		st := srv.Stats()
		srv.Close()
		return armFromLoad(name, fault, rep, st)
	}

	var gateFailures []string
	gate := func(arm *ChaosArm, ok bool, desc string) {
		if ok {
			arm.Gate = "pass"
			return
		}
		arm.Gate = "FAIL: " + desc
		gateFailures = append(gateFailures, fmt.Sprintf("%s: %s", arm.Name, desc))
	}

	const availabilityFloor = 0.99

	// Baseline: no faults.
	clean := runArm("clean", "none", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
	}, serve.LoadOptions{Clients: 8})
	report.Arms = append(report.Arms, clean)

	// Worker kills with supervision: deaths are respawned, the service
	// stays up, only the killed batches pay (with ErrPanicked).
	kill := runArm("worker-kill", "KillRate 0.004/batch", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: 10 * time.Millisecond, SupervisorInterval: time.Millisecond,
		Chaos: &serve.ChaosProfile{Seed: seed, KillRate: 0.004},
	}, serve.LoadOptions{Clients: 8, RequestTimeout: 100 * time.Millisecond})
	gate(&kill, kill.Availability >= availabilityFloor && kill.WorkerDeaths > 0,
		fmt.Sprintf("availability %.4f (floor %.2f), deaths %d (want > 0)",
			kill.Availability, availabilityFloor, kill.WorkerDeaths))
	report.Arms = append(report.Arms, kill)

	// The contrast arm: same kills, supervision off — dead shards
	// starve, queries into them time out, availability collapses.
	killNoSup := runArm("worker-kill-nosup", "KillRate 0.004/batch, no supervisor", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: -1,
		Chaos:        &serve.ChaosProfile{Seed: seed, KillRate: 0.004},
	}, serve.LoadOptions{Clients: 8, RequestTimeout: 25 * time.Millisecond})
	report.Arms = append(report.Arms, killNoSup)

	// Stalls: the supervisor deposes stuck workers; the stalled batch is
	// still answered (late, correctly) so availability holds.
	stall := runArm("worker-stall", "StallRate 0.01/batch, 20ms", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: 5 * time.Millisecond, SupervisorInterval: time.Millisecond,
		Chaos: &serve.ChaosProfile{Seed: seed, StallRate: 0.01, StallFor: 20 * time.Millisecond},
	}, serve.LoadOptions{Clients: 8, RequestTimeout: 100 * time.Millisecond})
	gate(&stall, stall.Availability >= availabilityFloor && stall.WorkerStalls > 0,
		fmt.Sprintf("availability %.4f (floor %.2f), stalls %d (want > 0)",
			stall.Availability, availabilityFloor, stall.WorkerStalls))
	report.Arms = append(report.Arms, stall)

	// Slow workers, hedging off vs on: the pair that shows what hedged
	// requests buy (p99) and what they cost (bounded re-dispatches).
	// These arms run OPEN loop at a fixed offered rate: in a closed
	// loop the fault's share of traffic depends on how fast the host
	// turns batches around, so the p99 comparison would measure the
	// machine; at a fixed arrival rate ~SlowRate of requests land in a
	// slow batch on any host, and the only question is whether hedging
	// moves them out of the tail.
	const slowQPS = 2000
	slowChaos := func() *serve.ChaosProfile {
		return &serve.ChaosProfile{Seed: seed, SlowRate: 0.05, SlowFor: 20 * time.Millisecond}
	}
	slowNoHedge := runArm("slow-nohedge", "SlowRate 0.05/batch, 20ms", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: 50 * time.Millisecond, // slow != stalled
		Chaos:        slowChaos(),
	}, serve.LoadOptions{QPS: slowQPS, RequestTimeout: 100 * time.Millisecond})
	report.Arms = append(report.Arms, slowNoHedge)

	// Budget sized so the ~5% hedge demand never runs dry (a denied
	// hedge waits out the full stall and lands in the p99) while the
	// bound primaries·budget + burst stays a real ceiling.
	const hedgeBudget, hedgeBurst = 0.5, 128
	slowHedge := runArm("slow-hedge", "SlowRate 0.05/batch, 20ms, hedged", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: 50 * time.Millisecond,
		Hedge:        true, HedgeDelay: time.Millisecond,
		HedgeBudget: hedgeBudget, HedgeBurst: hedgeBurst,
		Chaos: slowChaos(),
	}, serve.LoadOptions{QPS: slowQPS, RequestTimeout: 100 * time.Millisecond})
	hedgeBound := uint64(float64(slowHedge.Completed-slowHedge.HedgeWon)*hedgeBudget) + hedgeBurst
	gate(&slowHedge,
		slowHedge.P99us < slowNoHedge.P99us && slowHedge.HedgeWins > 0 && slowHedge.Hedges <= hedgeBound,
		fmt.Sprintf("p99 %.0fµs vs unhedged %.0fµs (want <), hedge wins %d (want > 0), hedges %d (bound %d)",
			slowHedge.P99us, slowNoHedge.P99us, slowHedge.HedgeWins, slowHedge.Hedges, hedgeBound))
	report.Arms = append(report.Arms, slowHedge)

	// Dropped responses: without a hedge the caller would hang to its
	// deadline; with one, a drop costs a hedge delay.
	drop := runArm("drop-hedge", "DropRate 0.01/response, hedged", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		Hedge: true, HedgeDelay: time.Millisecond,
		HedgeBudget: hedgeBudget, HedgeBurst: hedgeBurst,
		Chaos: &serve.ChaosProfile{Seed: seed, DropRate: 0.01},
	}, serve.LoadOptions{Clients: 8, RequestTimeout: 100 * time.Millisecond})
	gate(&drop, drop.Availability >= availabilityFloor && drop.Dropped > 0,
		fmt.Sprintf("availability %.4f (floor %.2f), drops %d (want > 0)",
			drop.Availability, availabilityFloor, drop.Dropped))
	report.Arms = append(report.Arms, drop)

	// Brownout: slow compute plus more offered load than the pool can
	// serve within its queue-delay budget. The ladder must engage and
	// trade low-priority work away first.
	{
		srv := serve.NewServer(model, serve.Options{
			Workers: 2, BatchCap: 4, MaxQueueDelay: 5 * time.Millisecond,
			SupervisorInterval: time.Millisecond, StallTimeout: 50 * time.Millisecond,
			Chaos: &serve.ChaosProfile{Seed: seed, SlowRate: 0.6, SlowFor: 8 * time.Millisecond},
		})
		var lowRep, highRep serve.LoadReport
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			lowRep = serve.RunLoad(srv, workload, serve.LoadOptions{
				Clients: 8, Duration: armDur,
				RequestTimeout: 50 * time.Millisecond, Priority: serve.PriorityLow,
			})
		}()
		go func() {
			defer wg.Done()
			highRep = serve.RunLoad(srv, workload, serve.LoadOptions{
				Clients: 2, Duration: armDur,
				RequestTimeout: 50 * time.Millisecond, Priority: serve.PriorityHigh,
			})
		}()
		wg.Wait()
		st := srv.Stats()
		srv.Close()
		low := armFromLoad("brownout-low", "SlowRate 0.6/batch 8ms + overload, PriorityLow", lowRep, st)
		high := armFromLoad("brownout-high", "SlowRate 0.6/batch 8ms + overload, PriorityHigh", highRep, st)
		gate(&high,
			high.Availability >= low.Availability && st.HealthTransitions > 0,
			fmt.Sprintf("high-pri availability %.4f vs low-pri %.4f (want >=), transitions %d (want > 0)",
				high.Availability, low.Availability, st.HealthTransitions))
		report.Arms = append(report.Arms, low, high)
	}

	tw := newTabWriter(w)
	fmt.Fprintln(tw, "arm\tavail %\tp50 µs\tp99 µs\tdeaths\trespawns\tstalls\thedges\twins\tdenied\tdrops\tshed pri\thealth Δ\tgate")
	for _, a := range report.Arms {
		fmt.Fprintf(tw, "%s\t%.2f\t%.0f\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			a.Name, 100*a.Availability, a.P50us, a.P99us,
			a.WorkerDeaths, a.Respawns, a.WorkerStalls,
			a.Hedges, a.HedgeWins, a.HedgeDenied, a.Dropped,
			a.ShedPriority, a.HealthTransitions, a.Gate)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "chaos seed %d, schedule digest %s\n", report.Seed, report.ScheduleDigest)

	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	if len(gateFailures) > 0 {
		return fmt.Errorf("chaos bench gates failed: %v", gateFailures)
	}
	return nil
}

package main

import (
	"bytes"
	"fmt"
	"time"

	"sparkdbscan/internal/core"
	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/live"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/rng"
	"sparkdbscan/internal/serve"
)

// params fixes everything a run does except the seed and the window
// length. contract() is what the benchmark measures; the tests shrink
// it.
type params struct {
	Workload   string  `json:"workload"`
	Dataset    string  `json:"dataset"`
	Points     int     `json:"points"`
	Eps        float64 `json:"eps"`
	MinPts     int     `json:"minpts"`
	Cores      int     `json:"virtual_cores"`
	Partitions int     `json:"partitions"`
	Setups     int     `json:"setups"`

	Queries    int     `json:"query_bank"`
	Jitter     float64 `json:"query_jitter"`
	ReadQPS    float64 `json:"read_qps"`
	Sweep      []int   `json:"sweep_qps"`
	SLOMicros  float64 `json:"slo_p99_us"`
	Prefill    int     `json:"overlay_prefill"`
	WriteQPS   float64 `json:"write_qps"`
	DeleteFrac float64 `json:"delete_frac"`
}

// Read p99 limit behind max_qps_at_slo, measured from each request's
// due time.
const sloP99 = 2 * time.Millisecond

// contract is the benchmark's fixed configuration. The read and write
// rates leave the live server headroom even when the host runs at half
// speed: nearer saturation a slowed host sheds churn reads, and a
// workload must not fail.
func contract(workload string) params {
	return params{
		Workload: workload, Dataset: "c100k", Points: 102_400,
		Eps: quest.TableIEps, MinPts: quest.TableIMinPts,
		Cores: 16, Partitions: 16, Setups: 3,
		Queries: 1 << 16, Jitter: 1, ReadQPS: 5000,
		Sweep:     []int{10000, 20000, 40000, 60000, 80000, 100000, 125000, 150000},
		SLOMicros: micros(sloP99),
		Prefill:   1000, WriteQPS: 300, DeleteFrac: 0.3,
	}
}

func (p params) dbscan() dbscan.Params { return dbscan.Params{Eps: p.Eps, MinPts: p.MinPts} }

// inputs is what set-up hands to the timed phases. The program under
// test receives only ds's encoding, the query bank and the write
// stream, all derived from the seed.
type inputs struct {
	ds    *geom.Dataset
	input []byte // ds encoded as text (range) or binary (cell)
	tree  *kdtree.Tree
	ref   *dbscan.Result // sequential reference clustering
	bank  []float64      // query bank, flat row-major
	model *serve.Model
	live  *live.Model

	freeze time.Duration
	nextID int64 // first external id the churn stream may use
}

func (in *inputs) query(i int) []float64 {
	d := in.ds.Dim
	j := i % (len(in.bank) / d)
	return in.bank[j*d : (j+1)*d : (j+1)*d]
}

// setup builds a run's inputs from the seed: the dataset, its input
// encoding, the sequential reference, the frozen model, the query bank
// and the live model with its overlay pre-filled.
func setup(p params, seed uint64) (*inputs, error) {
	spec, err := quest.ByName(p.Dataset)
	if err != nil {
		return nil, err
	}
	if p.Points < spec.N {
		spec = spec.Scaled(p.Points)
	}
	// The job input is Table I's instance, in its own order; the seed
	// picks the query bank, the write stream and the simulated
	// stragglers. Reseeding or reordering the points instead moves the
	// cell grid's plan (derived from a stride sample), and with it the
	// halo and every cell-mode figure, by more than any bound the
	// benchmark could hold.
	ds, err := quest.Generate(spec)
	if err != nil {
		return nil, err
	}
	ds.Label = nil // the job's input carries no ground truth
	r := rng.New(seed)
	in := &inputs{ds: ds}
	if in.input, err = encode(ds, p.partitioning()); err != nil {
		return nil, err
	}

	in.tree = kdtree.Build(ds)
	if in.ref, err = dbscan.Run(ds, in.tree, p.dbscan()); err != nil {
		return nil, fmt.Errorf("reference clustering: %w", err)
	}

	t0 := time.Now()
	in.model, err = serve.Freeze(ds, in.ref.Labels, in.ref.Core, in.tree, p.dbscan())
	in.freeze = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("freeze: %w", err)
	}

	in.bank = jittered(ds, r, p.Queries, p.Jitter)

	// Thresholds off: the churn window must not reconcile on its own.
	in.live, err = live.NewModel(ds, in.ref.Labels, in.tree, p.dbscan(),
		live.Options{MaxOverlay: -1, MaxDrift: -1})
	if err != nil {
		return nil, fmt.Errorf("live model: %w", err)
	}
	in.nextID = int64(1) << 40
	pre := jittered(ds, r, p.Prefill, p.Jitter)
	for i := 0; i < p.Prefill; i++ {
		if err := in.live.Insert(in.nextID, pre[i*ds.Dim:(i+1)*ds.Dim]); err != nil {
			return nil, fmt.Errorf("prefill overlay: %w", err)
		}
		in.nextID++
	}
	return in, nil
}

// encode writes ds in the job input format of part: text for range mode
// (the paper's input), binary for cell mode.
func encode(ds *geom.Dataset, part core.PartitionMode) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if part == core.PartRange {
		err = geom.WriteText(&buf, ds)
	} else {
		err = geom.WriteBinary(&buf, ds)
	}
	if err != nil {
		return nil, fmt.Errorf("encode input: %w", err)
	}
	return buf.Bytes(), nil
}

// jittered draws n dataset points uniformly and displaces each axis by
// up to ±jitter.
func jittered(ds *geom.Dataset, r *rng.RNG, n int, jitter float64) []float64 {
	out := make([]float64, 0, n*ds.Dim)
	for i := 0; i < n; i++ {
		for _, v := range ds.At(int32(r.Intn(ds.Len()))) {
			out = append(out, v+(r.Float64()*2-1)*jitter)
		}
	}
	return out
}

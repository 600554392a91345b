// Command e2ebench is the repository's end-to-end benchmark. One run
// measures the whole pipeline on one workload: offline jobs (input
// bytes → parse → core.Run on the virtual cluster), frozen serving
// under an open-loop read schedule and a rate sweep, and live serving
// beside a paced write stream, ending in a reconcile. Every output is
// checked for correctness. See README.md.
//
//	bash e2ebench/run.sh --workload range --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// nproc bounds every degree of host parallelism the benchmark sets:
// GOMAXPROCS, spark.Config.HostParallelism, Real-mode cores and
// serve.Options.Workers.
var nproc = runtime.NumCPU()

// outDir receives the run records and span traces, relative to the
// checkout root.
const outDir = ".bench_build/runs"

func main() {
	workload := flag.String("workload", "", "range or cell")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 30, "length of the measured window")
	traced := flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
	flag.Parse()
	if *workload != "range" && *workload != "cell" {
		fatalf("unknown workload %q (want range or cell)", *workload)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(nproc)

	p := contract(*workload)
	res, err := run(p, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fatalf("%v", err)
	}
	res.Header = hostHeader(*seed)
	res.print(os.Stdout)
	if err := res.save(outDir); err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", a...)
	os.Exit(1)
}

// header identifies what was measured and where.
type header struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitRev     string `json:"git_rev"`
	SourceSHA  string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
	Start      string `json:"start"`
}

func hostHeader(seed uint64) header {
	host, _ := os.Hostname() // diagnostics only
	h := header{Host: host, NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GitRev: "none", SourceSHA: sourceDigest("."), Seed: seed,
		Start: time.Now().UTC().Format(time.RFC3339)}
	// Only the checkout's own repository names the revision; a
	// repository enclosing a plain checkout would name the wrong code.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.GitRev = strings.TrimSpace(string(out))
		}
	}
	return h
}

// sourceDigest hashes the Go sources under root, so a run names the
// code it measured even where the checkout is not a git repository.
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(sum, "%s %d\n", path, len(b))
		sum.Write(b)
		return nil
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	Header    header            `json:"header"`
	Params    params            `json:"params"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  map[string]int    `json:"failures"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Reported  map[string]metric `json:"reported_not_gated"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Dists     map[string]dist   `json:"distributions"`
	Sweep     []sweepStep       `json:"sweep"`
	Clocks    []phaseRow        `json:"two_clock_table,omitempty"`

	rec *recorder
}

func (r *result) put(m map[string]metric, name, unit string, v float64) {
	m[name] = metric{finite(v), unit}
}

// finite maps the infinite tail of a window with too many unanswered
// requests, which JSON cannot carry, to -1. Such a run also counts the
// unanswered requests as failures.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// summary is the last line of standard output.
func (r *result) summary() any {
	m := r.EndToEnd
	if r.Traced {
		m = r.PerLayer
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, m}
}

func (r *result) print(w io.Writer) {
	h := r.Header
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d seconds=%g trace=%v\n", r.Params.Workload, h.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "host=%s nproc=%d GOMAXPROCS=%d %s %s/%s git=%s src=%.12s\n",
		h.Host, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.GitRev, h.SourceSHA)
	fmt.Fprintf(w, "fail_frac %.6f (%d of %d) %v\n", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted, r.Failures)
	printMetrics(w, "end-to-end", r.EndToEnd)
	printMetrics(w, "reported, not gated", r.Reported)
	names := make([]string, 0, len(r.Dists))
	for k := range r.Dists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		d := r.Dists[k]
		fmt.Fprintf(w, "  dist %-22s n=%-7d p50=%-12.4g p%g=%.4g\n", k, d.N, d.P50, d.Q*100, d.Tail)
	}
	for _, s := range r.Sweep {
		fmt.Fprintf(w, "  sweep %7d/s achieved=%-9.0f p99=%-9.1fus end_p50=%-9.1fus meets_slo=%v\n",
			s.QPS, s.Achieved, s.P99, s.EndP50, s.Pass)
	}
	if r.Traced {
		printMetrics(w, "per-layer", r.PerLayer)
		fmt.Fprintf(w, "two clocks (wall: spark.Real on %d cores; sim: %d virtual cores)\n", nproc, r.Params.Cores)
		fmt.Fprintf(w, "  %-10s %12s %12s %12s %12s %10s %10s %s\n", "layer",
			"range_wall_s", "range_sim_s", "cell_wall_s", "cell_sim_s", "cell/range", "cell/range", "same rank")
		for _, row := range r.Clocks {
			fmt.Fprintf(w, "  %-10s %12.4f %12.3f %12.4f %12.3f %10s %10s %s\n", row.Layer,
				row.RangeWall, row.RangeSim, row.CellWall, row.CellSim,
				ratio(row.CellWall, row.RangeWall), ratio(row.CellSim, row.RangeSim), row.SameRank)
		}
	}
}

func ratio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", a/b)
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(w, "%s:\n", title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %-14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// save writes the run record, and the span trace of a traced run.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v", r.Params.Workload, r.Header.Seed, r.Traced))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	if r.rec == nil {
		return nil
	}
	f, err := os.Create(base + "-spans.json")
	if err != nil {
		return fmt.Errorf("save spans: %w", err)
	}
	if err := r.rec.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("save spans: %w", err)
	}
	return f.Close()
}

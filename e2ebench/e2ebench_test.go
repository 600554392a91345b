package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"sparkdbscan/internal/dbscan"
)

// tiny shrinks the contract so a whole run takes a few seconds.
func tiny(workload string) params {
	p := contract(workload)
	p.Points = 3000
	p.Cores, p.Partitions = 4, 4
	p.Setups = 1
	p.Queries = 1024
	p.ReadQPS = 2000
	p.Sweep = []int{2000, 4000}
	p.Prefill = 50
	p.WriteQPS = 200
	return p
}

const tinyWindow = 3 * time.Second

// benchmarkSpec is the part of BENCHMARK.json the program must agree
// with: every metric it promises, with its unit.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload of
// BENCHMARK.json once untraced and once traced, at a tiny size.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(tiny(w.Name), 7, tinyWindow, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if traced {
				checkMetrics(t, w.Name+" per_layer", res.PerLayer, spec.PerLayer)
				if len(res.rec.spans) == 0 {
					t.Errorf("%s: traced run recorded no span", w.Name)
				}
			} else {
				checkMetrics(t, w.Name+" end_to_end", res.EndToEnd, spec.EndToEnd)
				for name, m := range res.EndToEnd {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestFailuresCount corrupts one output of each checked kind and
// expects fail_frac above zero.
func TestFailuresCount(t *testing.T) {
	corruptions := map[string]func(m *measured){
		"corrupted job label": func(m *measured) {
			labels := m.off.jobs[1].res.Global.Labels
			for i, core := range m.in.ref.Core {
				if core {
					labels[i] = dbscan.Noise
					return
				}
			}
			t.Fatal("reference has no core point")
		},
		"dropped frozen answer": func(m *measured) { m.fr.nominal[0].ok[5] = false },
		"wrong frozen answer":   func(m *measured) { m.fr.nominal[0].ans[9].Cluster += 1000 },
		"dropped churn answer":  func(m *measured) { m.ch.reads.ok[3] = false },
		"failed write":          func(m *measured) { m.ch.writeErrors++ },
		"reconcile below ARI":   func(m *measured) { m.ch.ari = 0.5 },
	}
	for name, corrupt := range corruptions {
		m, err := measure(tiny("range"), 3, time.Second, false)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(m)
		res := m.result()
		if frac := res.Reported["fail_frac"].Value; res.Failed == 0 || frac <= 0 {
			t.Errorf("%s: fail_frac %v, failures %v", name, frac, res.Failures)
		}
	}
}

func TestTailP99IgnoresOneStall(t *testing.T) {
	lr := &loadRun{rate: 1000}
	for i := 0; i < 4000; i++ {
		lat := 10 * time.Microsecond
		if i >= 100 && i < 300 { // a 200 ms stall inside one sub-window
			lat = 50 * time.Millisecond
		}
		lr.lat = append(lr.lat, lat)
		lr.ok = append(lr.ok, true)
	}
	if got := lr.tailP99(); got != 10 {
		t.Errorf("tailP99 = %v µs, want 10", got)
	}
	lr.ok[2500] = false
	lr.ok[2501] = false
	lr.ok[2502] = false
	for i := 3000; i < 3600; i++ {
		lr.ok[i] = false
	}
	if got := lr.tailP99(); got != 10 {
		t.Errorf("with unanswered requests in two of eight sub-windows: tailP99 = %v µs, want 10", got)
	}
}

func TestSelfSeconds(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{name: "bench.job", start: 0, end: 10 * time.Second, id: 1, root: 1},
		{name: "geom.Read", start: 1 * time.Second, end: 3 * time.Second, id: 2, parent: 1, root: 1},
		{name: "core.Run", start: 2 * time.Second, end: 6 * time.Second, id: 3, parent: 1, root: 1},
	}
	got := r.selfSeconds()
	want := map[string]float64{"bench": 5, "geom": 2, "core": 4}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ returns the highest of the usual percentiles that leaves at
// least ten samples beyond it, so a reported tail is never one outlier.
func tailQ(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// dist summarizes a sample as its median and its supported tail.
type dist struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50"`
	Q    float64 `json:"tail_q"`
	Tail float64 `json:"tail"`
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs), Q: tailQ(len(xs))}
	d.P50 = quantile(xs, 0.5)
	d.Tail = quantile(xs, d.Q)
	return d
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMB runs a full GC and returns the heap it found reachable, in
// MB. Taken at phase boundaries, it measures what the pipeline holds;
// a heap sampled mid-phase would swing with where GC cycles happened
// to fall.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

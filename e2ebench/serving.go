package main

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/live"
	"sparkdbscan/internal/rng"
	"sparkdbscan/internal/serve"
)

// loadRun is one open-loop window: n requests due at fixed intervals,
// sent from one generator whether or not earlier ones have returned.
type loadRun struct {
	rate    float64
	lat     []time.Duration // from due time to answer
	lag     []time.Duration // how late the generator sent each request
	ans     []serve.Assignment
	ok      []bool
	backlog int64 // most requests in flight at once
	elapsed time.Duration
}

// waitUntil returns at t. It sleeps while t is far and yields while it
// is near: a sleep per request would make the generator's own timer
// slack, not the server, dominate latency measured from due.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - time.Millisecond)
		} else {
			runtime.Gosched()
			osYield()
		}
	}
}

// openLoop sends rate requests per second to s for d, request i asking
// query i of the bank.
func openLoop(s *serve.Server, in *inputs, rate float64, d time.Duration, rec *recorder) *loadRun {
	n := int(rate * d.Seconds())
	lr := &loadRun{rate: rate, lat: make([]time.Duration, n), lag: make([]time.Duration, n),
		ans: make([]serve.Assignment, n), ok: make([]bool, n)}
	ctx := context.Background()
	var wg sync.WaitGroup
	var inflight atomic.Int64
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		waitUntil(due)
		lr.lag[i] = time.Since(due)
		if b := inflight.Add(1); b > lr.backlog {
			lr.backlog = b
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			root := rec.openAt("bench.request", openSpan{}, due)
			sp := rec.open("serve.Server.Assign", root)
			a, err := s.Assign(ctx, in.query(i))
			rec.close(sp)
			lr.lat[i] = time.Since(due)
			inflight.Add(-1)
			rec.close(root)
			lr.ans[i], lr.ok[i] = a, err == nil
		}(i, due)
	}
	wg.Wait()
	lr.elapsed = time.Since(start)
	return lr
}

// latencies returns the answered requests' latencies from due, in µs.
func (lr *loadRun) latencies() []float64 {
	out := make([]float64, 0, len(lr.lat))
	for i, l := range lr.lat {
		if lr.ok[i] {
			out = append(out, micros(l))
		}
	}
	return out
}

// chunk is the sub-window over which tailP99 takes one p99.
const chunk = 500 * time.Millisecond

// tailP99 returns the median, over consecutive sub-windows of length
// chunk, of each sub-window's p99 latency from due, in µs. A host stall
// of a few milliseconds then moves one sub-window, not the whole
// figure. An unanswered request counts as slower than any answer.
func (lr *loadRun) tailP99() float64 {
	per := int(lr.rate * chunk.Seconds())
	if per < 100 {
		per = 100
	}
	var p99s []float64
	for lo := 0; lo+per <= len(lr.lat); lo += per {
		xs := make([]float64, per)
		for i := range xs {
			xs[i] = math.Inf(1)
			if lr.ok[lo+i] {
				xs[i] = micros(lr.lat[lo+i])
			}
		}
		p99s = append(p99s, quantile(xs, 0.99))
	}
	return median(p99s)
}

func (lr *loadRun) unanswered() int {
	n := 0
	for _, ok := range lr.ok {
		if !ok {
			n++
		}
	}
	return n
}

// wrong counts answered requests whose answer differs from the frozen
// model's batch answer to the same query.
func (lr *loadRun) wrong(expect []serve.Assignment) int {
	n := 0
	for i, a := range lr.ans {
		e := expect[i%len(expect)]
		if lr.ok[i] && (a.Cluster != e.Cluster || a.Core != e.Core) {
			n++
		}
	}
	return n
}

// sweepStep is one fixed-rate step of the max_qps_at_slo sweep.
type sweepStep struct {
	QPS      int     `json:"qps"`
	Achieved float64 `json:"achieved_qps"`
	P99      float64 `json:"p99_us"`     // as tailP99 takes it
	EndP50   float64 `json:"end_p50_us"` // median latency of the last sub-window
	Pass     bool    `json:"meets_slo"`
}

// step judges a sweep step: it meets the limit when its p99 from due
// (as tailP99 takes it) is within sloP99 and no backlog grew, that is
// the median request of its last sub-window was answered within sloP99
// of its due time too.
func (lr *loadRun) step() sweepStep {
	s := sweepStep{QPS: int(lr.rate), Achieved: lr.achievedQPS(), P99: lr.tailP99()}
	per := min(int(lr.rate*chunk.Seconds()), len(lr.lat))
	tail := make([]float64, per)
	for i := range tail {
		k := len(lr.lat) - per + i
		tail[i] = math.Inf(1)
		if lr.ok[k] {
			tail[i] = micros(lr.lat[k])
		}
	}
	s.EndP50 = median(tail)
	limit := micros(sloP99)
	s.Pass = s.P99 <= limit && s.EndP50 <= limit
	s.P99, s.EndP50 = finite(s.P99), finite(s.EndP50)
	return s
}

func (lr *loadRun) achievedQPS() float64 {
	return float64(len(lr.lat)-lr.unanswered()) / lr.elapsed.Seconds()
}

// serveOptions configures both servers. The queue-delay budget is a
// second rather than the default 100 ms: the nominal load is far below
// capacity, but the shared host stalls the whole VM for over 100 ms now
// and then, and the default budget then sheds reads, each a failure, that
// the server answers as soon as the host resumes.
func serveOptions() serve.Options {
	return serve.Options{Workers: nproc, MaxQueueDelay: time.Second}
}

// frozenRun is the frozen-serving phase: a nominal-rate window, then a
// sweep of fixed rate steps that stops at the first step missing the
// limit.
type frozenRun struct {
	nominal []*loadRun // two halves in a traced run: untraced, traced
	sweep   []*loadRun
	steps   []sweepStep
	stats   serve.Stats // server metrics after the nominal window
	maxQPS  float64     // achieved rate of the highest step meeting the limit
}

func runFrozen(in *inputs, p params, nominal, sweep time.Duration, rec *recorder) *frozenRun {
	s := serve.NewServer(in.model, serveOptions())
	defer s.Close()
	f := &frozenRun{}
	if rec == nil {
		f.nominal = []*loadRun{openLoop(s, in, p.ReadQPS, nominal, nil)}
	} else {
		f.nominal = []*loadRun{
			openLoop(s, in, p.ReadQPS, nominal/2, nil),
			openLoop(s, in, p.ReadQPS, nominal/2, rec),
		}
	}
	f.stats = s.Stats()
	if sweep == 0 {
		return f
	}
	step := sweep / time.Duration(len(p.Sweep))
	for _, qps := range p.Sweep {
		// Untraced even in the traced run: at the sweep's rates the spans
		// would outnumber every other layer's.
		lr := openLoop(s, in, float64(qps), step, nil)
		st := lr.step()
		f.sweep = append(f.sweep, lr)
		f.steps = append(f.steps, st)
		if !st.Pass {
			break
		}
		f.maxQPS = st.Achieved
	}
	return f
}

// churnRun is the live phase: the nominal read schedule beside a paced
// insert/delete stream, then timed reconciles.
type churnRun struct {
	reads        *loadRun
	writes       []float64 // call latencies in µs, in call order
	isDelete     []bool
	writeErrors  int
	stats        live.Stats          // before the reconcile
	deltaRadius  float64             // median µs of one overlay scan
	reconcile    []float64           // seconds per ReconcileNow
	reconciled   live.ReconcileStats // of the first reconcile
	reconcileErr error
	ari          float64
	ariErr       error
	serverP99    float64
	heapMB       float64 // live heap before the reconcile
}

func runChurn(in *inputs, p params, seed uint64, d time.Duration, rec *recorder) *churnRun {
	s := live.NewServer(in.live, serveOptions())
	defer s.Close()
	c := &churnRun{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.write(s, in, p, seed, d, rec)
	}()
	c.reads = openLoop(s.Server, in, p.ReadQPS, d, rec)
	<-done
	st := s.Stats()
	c.serverP99 = micros(st.LatencyP99)

	m := s.LiveModel()
	c.stats = m.Stats()
	c.deltaRadius = deltaRadius(m, in, p)
	c.heapMB = liveHeapMB()

	// The first reconcile folds the overlay in; the next four rebuild the
	// same survivors, the same work, so the reported time is a median.
	for i := 0; i < 5; i++ {
		sp := rec.open("live.Model.ReconcileNow", openSpan{})
		t0 := time.Now()
		st, err := m.ReconcileNow()
		c.reconcile = append(c.reconcile, time.Since(t0).Seconds())
		rec.close(sp)
		if i == 0 {
			c.reconciled = st
		}
		if err != nil {
			c.reconcileErr = err
		}
	}

	c.ari, c.ariErr = churnARI(m, p, rec)
	return c
}

// write sends inserts of jittered dataset points, and deletes of points
// it inserted with probability p.DeleteFrac, at p.WriteQPS for d.
// Each write is timed from its call.
func (c *churnRun) write(s *live.Server, in *inputs, p params, seed uint64, d time.Duration, rec *recorder) {
	r := rng.New(seed ^ 0x5bd1e995)
	var ids []int64
	id := in.nextID
	interval := time.Duration(float64(time.Second) / p.WriteQPS)
	start := time.Now()
	for due := start; due.Sub(start) < d; due = due.Add(interval) {
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		var sp openSpan
		var t0 time.Time
		var err error
		del := len(ids) > 0 && r.Float64() < p.DeleteFrac
		if del {
			k := r.Intn(len(ids))
			victim := ids[k]
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			sp = rec.open("live.Server.Delete", openSpan{})
			t0 = time.Now()
			err = s.Delete(victim)
		} else {
			pt := jittered(in.ds, r, 1, p.Jitter)
			sp = rec.open("live.Server.Insert", openSpan{})
			t0 = time.Now()
			if err = s.Insert(id, pt); err == nil {
				ids = append(ids, id)
			}
			id++
		}
		c.writes = append(c.writes, micros(time.Since(t0)))
		c.isDelete = append(c.isDelete, del)
		rec.close(sp)
		if err != nil {
			c.writeErrors++
		}
	}
}

// writeLatencies returns the latencies of the deletes (del) or inserts.
func (c *churnRun) writeLatencies(del bool) []float64 {
	var out []float64
	for i, l := range c.writes {
		if c.isDelete[i] == del {
			out = append(out, l)
		}
	}
	return out
}

// deltaRadius times one overlay scan through Guard.Delta().Radius over
// a fixed sample of the query bank and returns the median in µs.
func deltaRadius(m *live.Model, in *inputs, p params) float64 {
	g := m.Pin()
	defer g.Close()
	idx := g.Delta()
	var buf []int32
	var st kdtree.SearchStats
	xs := make([]float64, 0, 256)
	for i := 0; i < 256; i++ {
		t0 := time.Now()
		buf = idx.Radius(in.query(i), p.Eps, buf[:0], &st)
		xs = append(xs, micros(time.Since(t0)))
	}
	return median(xs)
}

// churnARI compares the reconciled labels with a from-scratch DBSCAN on
// the survivors.
func churnARI(m *live.Model, p params, rec *recorder) (float64, error) {
	g := m.Pin()
	defer g.Close()
	sp := rec.open("live.Guard.Survivors", openSpan{})
	ds, labels := g.Survivors()
	rec.close(sp)
	sp = rec.open("kdtree.Build", openSpan{})
	tree := kdtree.Build(ds)
	rec.close(sp)
	sp = rec.open("dbscan.Run", openSpan{})
	res, err := dbscan.Run(ds, tree, p.dbscan())
	rec.close(sp)
	if err != nil {
		return 0, err
	}
	sp = rec.open("eval.AdjustedRandIndex", openSpan{})
	defer rec.close(sp)
	return eval.AdjustedRandIndex(labels, res.Labels)
}

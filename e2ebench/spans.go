package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Wall-clock spans recorded by the benchmark around its own calls into
// the program's modules. A nil *recorder records nothing, so the
// untraced run pays one nil check per call site.

// span is one closed interval. Spans of one job or one request share
// root; parent is 0 for a root.
type span struct {
	name             string
	start, end       time.Duration // since the recorder's epoch
	id, parent, root int64
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	name             string
	t0               time.Time
	id, parent, root int64
}

type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// open starts a span now; see openAt.
func (r *recorder) open(name string, parent openSpan) openSpan {
	if r == nil {
		return openSpan{}
	}
	return r.openAt(name, parent, time.Now())
}

// openAt starts a span named name at t, as a child of parent, or as a
// new root when parent is the zero openSpan.
func (r *recorder) openAt(name string, parent openSpan, t time.Time) openSpan {
	if r == nil {
		return openSpan{}
	}
	s := openSpan{name: name, t0: t, id: r.ids.Add(1), parent: parent.id, root: parent.root}
	if s.root == 0 {
		s.root = s.id
	}
	return s
}

// close ends s now.
func (r *recorder) close(s openSpan) {
	if r == nil || s.id == 0 {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		name: s.name, start: s.t0.Sub(r.epoch), end: end.Sub(r.epoch),
		id: s.id, parent: s.parent, root: s.root,
	})
	r.mu.Unlock()
}

// layer names the module a span belongs to: the prefix of its name up
// to the first dot ("serve.Server.Assign" → "serve").
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfSeconds sums, per layer, each span's duration minus the part of
// it that its child spans cover.
func (r *recorder) selfSeconds() map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		self := s.end - s.start
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covEnd := s.start
		for _, k := range kids {
			lo, hi := max(k.start, covEnd), min(k.end, s.end)
			if hi > lo {
				self -= hi - lo
				covEnd = hi
			}
		}
		out[layer(s.name)] += self.Seconds()
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in Perfetto. Each root gets its own track, so the
// spans on a track nest.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int64            `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChrome writes every recorded span as Chrome trace-event JSON.
func (r *recorder) writeChrome(w io.Writer) error {
	spans := append([]span(nil), r.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		if i > 0 {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		ev := chromeEvent{
			Name: s.name, Cat: layer(s.name), Ph: "X",
			Ts: micros(s.start), Dur: micros(s.end - s.start), Tid: s.root,
			Args: map[string]int64{"id": s.id, "parent": s.parent, "root": s.root},
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Trace is shared by every
// span of one fit or one request; Parent is 0 for a root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory; Write dumps them when the run ends.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewID reserves a span ID, so children can name a parent that is still
// open.
func (t *Tracer) NewID() int64 { return t.ids.Add(1) }

// Record stores a finished span under a reserved ID.
func (t *Tracer) Record(id, trace, parent int64, name string, start, end time.Time) {
	s := Span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Add records a finished span under a fresh ID and returns the ID.
func (t *Tracer) Add(trace, parent int64, name string, start, end time.Time) int64 {
	id := t.NewID()
	t.Record(id, trace, parent, name, start, end)
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// traceDump is the file a traced run leaves behind.
type traceDump struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Spans      []Span  `json:"spans"`
	SelfTime   selfMap `json:"self_time_s"`
}

type selfMap map[string]float64

// Write dumps every span as JSON.
func (t *Tracer) Write(path string, d traceDump) error {
	d.Spans = t.Spans()
	data, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// SelfTime sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func SelfTime(spans []Span) selfMap {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := selfMap{}
	for _, s := range spans {
		covered := coverage(s, children[s.ID])
		out[layerOf(s.Name)] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coverage is the length of the union of the children's intervals, clipped
// to the parent's.
func coverage(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

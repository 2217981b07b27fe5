package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around a call into the layer's exported functions. Spans of one request
// share Op; Parent is the span that caused this one (0 for a root). Counts
// carries the work counters read at the same boundary.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Workload string             `json:"workload"`
	Op       int                `json:"op"`
	Layer    string             `json:"layer"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	mu       sync.Mutex
	workload string
	origin   time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span and returns its id (0 on the untraced run).
func (t *tracer) begin(parent, op int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Op: op, Layer: layer, Name: name, StartNS: now, EndNS: -1})
	t.mu.Unlock()
	return id
}

// end closes span id, attaching the counters read at the boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].Counts = counts
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration, measured on
// the traced and the untraced run alike.
func (t *tracer) timed(parent, op int, layer, name string, fn func()) time.Duration {
	id := t.begin(parent, op, layer, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id, nil)
	return d
}

// record adds a span measured by the caller, for sections that must not see
// the tracer's own allocations while they run.
func (t *tracer) record(parent, op int, layer, name string, start, end time.Time, counts map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Op: op, Layer: layer, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(), Counts: counts,
	})
	t.mu.Unlock()
}

// closed returns the completed spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.EndNS >= s.StartNS {
			out = append(out, s)
		}
	}
	return out
}

// write stores the trace as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.closed()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of that
// interval its direct children cover. Children may overlap each other
// (parallel RPCs) and may stick out of the parent (clock skew between
// goroutines); the union is taken after clipping to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, cursor := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, cursor), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// spanStats aggregates the spans of one (layer, name): their durations and
// self times (from selfTimes) in milliseconds, in recording order.
type spanStats struct {
	durMS, selfMS []float64
}

func collect(spans []span, self map[int]int64, layer, name string) spanStats {
	var st spanStats
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			st.durMS = append(st.durMS, float64(s.EndNS-s.StartNS)/1e6)
			st.selfMS = append(st.selfMS, float64(self[s.ID])/1e6)
		}
	}
	return st
}

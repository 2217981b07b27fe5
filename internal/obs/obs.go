// Package obs is the serving-observability layer shared by the repo's HTTP
// daemons (rtrankd, gpserver): lock-light atomic counters, log2-bucketed
// latency histograms, callback gauges, and a Registry that exposes them in
// the Prometheus text exposition format (no external dependencies).
//
// The hot path is write-only atomics: a Counter.Inc or Histogram.Observe is
// a handful of atomic adds with no locks, so instrumentation is safe on the
// per-query serving path. The Registry mutex guards only metric
// registration (setup time, or the first occurrence of a rare label value)
// and exposition (scrape time).
package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// metricKind is the Prometheus TYPE of a metric family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// child is one labeled series of a family.
type child struct {
	labels string // preformatted, e.g. `path="/rank",code="200"`; may be empty
	c      *Counter
	h      interface { // either histogram kind
		write(b *strings.Builder, name, labels string)
	}
	fn func() float64 // callback gauges / counters
}

// family is one metric name: its help, type and labeled children.
type family struct {
	name     string
	help     string
	kind     metricKind
	children []*child
}

// Registry holds a daemon's metric families and renders them in the
// Prometheus text exposition format. Create one per process with
// NewRegistry; registration is cheap but synchronized, so resolve metric
// handles once at setup (or on first use of a label value) and hold on to
// them.
type Registry struct {
	namespace string

	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry. Every metric name is prefixed with
// namespace + "_" (e.g. namespace "rtrank" → "rtrank_http_requests_total").
func NewRegistry(namespace string) *Registry {
	return &Registry{namespace: namespace, byName: map[string]*family{}}
}

// register appends a child to the named family, creating the family on
// first use. Help and kind are taken from the first registration.
func (r *Registry) register(name, help string, kind metricKind, ch *child) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	f.children = append(f.children, ch)
}

// Counter registers and returns a counter with the given (possibly empty)
// preformatted label set, e.g. `path="/rank",code="200"`. Registering the
// same name with different labels grows the family.
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &child{labels: labels, c: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for re-exposing cumulative counts an underlying subsystem already
// keeps (cache hits, cluster RPCs). fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help, labels string, fn func() float64) {
	r.register(name, help, kindCounter, &child{labels: labels, fn: fn})
}

// Gauge registers a gauge whose value is read from fn at scrape time. fn
// must be safe for concurrent use.
func (r *Registry) Gauge(name, help, labels string, fn func() float64) {
	r.register(name, help, kindGauge, &child{labels: labels, fn: fn})
}

// Histogram registers and returns a log2-bucketed latency histogram with
// the given label set.
func (r *Registry) Histogram(name, help, labels string) *Histogram {
	h := &Histogram{}
	r.register(name, help, kindHistogram, &child{labels: labels, h: h})
	return h
}

// CountHistogram registers and returns a log2-bucketed integer histogram
// (for cardinalities like certified-K, not durations) with the given label
// set.
func (r *Registry) CountHistogram(name, help, labels string) *CountHistogram {
	h := &CountHistogram{}
	r.register(name, help, kindHistogram, &child{labels: labels, h: h})
	return h
}

// WriteTo renders every registered family in the Prometheus text exposition
// format (version 0.0.4). Families appear in registration order, children
// in registration order within a family.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	// Snapshot the family slice; the metrics themselves are atomics or
	// concurrency-safe callbacks, so rendering proceeds without the lock.
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	childs := make([][]*child, len(fams))
	for i, f := range fams {
		childs[i] = append([]*child(nil), f.children...)
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		name := r.namespace + "_" + f.name
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.kind)
		for _, ch := range childs[i] {
			switch {
			case ch.h != nil:
				ch.h.write(&b, name, ch.labels)
			case ch.c != nil:
				writeSample(&b, name, ch.labels, float64(ch.c.Value()))
			default:
				writeSample(&b, name, ch.labels, ch.fn())
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeSample writes one `name{labels} value` line.
func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

// Handler returns the GET /metrics endpoint over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

// joinLabels merges two preformatted label fragments with a comma, either
// of which may be empty.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// family groups the ops of a workload by what the system does for them.
type family int

const (
	famOnline family = iota // 2SBound / 2SBound-remote
	famExact                // Exact / Auto→exact / Distributed
	famApply                // POST /v1/edges
	numFamilies
)

var familyNames = [numFamilies]string{"online", "exact", "apply"}

// sample is the client-side record of one completed op.
type sample struct {
	family family
	ms     float64
	failed bool
}

// sizing scales the benchmark: fullSize is what BENCHMARK.json describes,
// toySize is the smoke test's.
type sizing struct {
	rmatNodes     int
	bibScale      float64
	tailQueries   int           // rmat-tail op list
	hubQueries    int           // rmat-hub op list
	exactQueries  int           // rmat-exact op list (half tail, half hub)
	packedQueries int           // rmat-packed online queries
	bibQueries    int           // bibnet-* query nodes
	verify        int           // verification subset of the bibnet-* workloads
	rmatVerify    int           // verification subset of the rmat-* workloads (each check costs an exact solve)
	probeQueries  int           // queries per layer probe on the traced run
	warmup        int           // warm-up ops before the timed runs
	setups        int           // set-ups per run at least; setup_s is their median
	setupTime     time.Duration // keep setting up until this much time went into it (at most maxSetups times)
	rowReads      int           // row reads of the graph.row_ns probe
	probeTime     time.Duration // length of a probe that is itself a closed loop
}

var fullSize = sizing{
	rmatNodes: 100_000, bibScale: 0.12,
	tailQueries: 128, hubQueries: 100, exactQueries: 32, packedQueries: 64, bibQueries: 100,
	verify: 16, rmatVerify: 8, probeQueries: 8, warmup: 8, setups: 9, setupTime: 500 * time.Millisecond, rowReads: 100_000, probeTime: 2 * time.Second,
}

var toySize = sizing{
	rmatNodes: 2_000, bibScale: 0.03,
	tailQueries: 16, hubQueries: 12, exactQueries: 12, packedQueries: 16, bibQueries: 12,
	verify: 4, rmatVerify: 4, probeQueries: 2, warmup: 2, setups: 2, rowReads: 2_000, probeTime: 100 * time.Millisecond,
}

// workload is one named set of inputs and the system under test built from
// them. The runner drives it: generate once, set up several times, warm up,
// verify outputs, run the closed loop untraced, then once more traced.
type workload interface {
	// generate makes every input from the seed. It is not part of setup_s.
	generate(seed int64, sz sizing) error
	// setup builds the system under test from the generated inputs, ready to
	// take its first op, and returns the phase timings (ms) it observed on
	// the way, keyed by per-layer metric name.
	setup() (map[string]float64, error)
	// warm runs the untimed ops that precede the timed runs: caches fill and
	// lazy set-up finishes here, as it would in the first seconds of serving.
	warm() error
	// teardown stops what setup started and waits for it.
	teardown()
	// clients is the closed loop's concurrency.
	clients() int
	// listLen is the length of the op list; op i is entry i mod listLen.
	listLen() int
	// do runs op i to completion on behalf of one client.
	do(client, i int, tr *tracer) sample
	// verify checks outputs on the verification subset, outside all timed
	// sections, and reports the quality and family metrics it derives there.
	verify(c *checker, m metrics) error
	// finish runs the checks that need the state the timed runs left behind.
	finish(c *checker) error
	// layers runs the per-layer probes of the traced run.
	layers(tr *tracer, m metrics) error
}

// maxSetups caps the set-ups of one run.
const maxSetups = 99

// workloadSpec is the fixed description of a workload.
type workloadSpec struct {
	name    string
	why     string
	primary family  // the op family p50_ms / tail_ms describe
	tail    float64 // the fixed tail percentile
	make    func() workload
}

// checker tallies output checks; every failed check counts as a failed op.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// runStats is what one closed-loop run observed.
type runStats struct {
	samples []sample
	first   []sample // first completed sample per op-list entry
	seen    []bool
	wall    time.Duration
}

func (rs *runStats) latencies(f family) []float64 {
	var out []float64
	for _, s := range rs.samples {
		if s.family == f && !s.failed {
			out = append(out, s.ms)
		}
	}
	return out
}

func (rs *runStats) failed() int {
	n := 0
	for _, s := range rs.samples {
		if s.failed {
			n++
		}
	}
	return n
}

func (rs *runStats) qps() float64 { return float64(len(rs.samples)) / rs.wall.Seconds() }

// closedLoop runs the op list cyclically for d: each client sends its next
// op only after the previous one completed. Ops are handed out in list order
// from one shared counter, so the mix does not depend on the client count.
func closedLoop(w workload, d time.Duration, tr *tracer) *runStats {
	n := w.listLen()
	rs := &runStats{first: make([]sample, n), seen: make([]bool, n)}
	perClient := make([][]sample, w.clients())
	idx := make([][]int, w.clients())
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				perClient[c] = append(perClient[c], w.do(c, i, tr))
				idx[c] = append(idx[c], i)
			}
		}(c)
	}
	wg.Wait()
	rs.wall = time.Since(start)
	for c, ss := range perClient {
		rs.samples = append(rs.samples, ss...)
		for j, s := range ss {
			if e := idx[c][j] % n; !rs.seen[e] {
				rs.seen[e], rs.first[e] = true, s
			}
		}
	}
	return rs
}

// firstOps runs the first n ops of the list on one client, untimed: the
// warm-up.
func firstOps(w workload, n int) error {
	for i := 0; i < n; i++ {
		if w.do(0, i, nil).failed {
			return fmt.Errorf("op %d failed", i)
		}
	}
	return nil
}

// workloadReport is one workload's section of result.json.
type workloadReport struct {
	Name           string         `json:"name"`
	Why            string         `json:"why"`
	Clients        int            `json:"clients"`
	Primary        string         `json:"primary_family"`
	TailPercentile float64        `json:"tail_percentile"`
	Ops            int            `json:"ops"`
	Samples        map[string]int `json:"samples"`
	ListLen        int            `json:"op_list_len"`
	ListCovered    int            `json:"op_list_covered"`
	Setups         int            `json:"setups"`
	Attempted      int            `json:"attempted"`
	Failed         int            `json:"failed"`
	Failures       []string       `json:"failures,omitempty"`
	TimedS         float64        `json:"timed_s"`
	WallS          float64        `json:"wall_s"`
	EndToEnd       metrics        `json:"end_to_end"`
	PerLayer       metrics        `json:"per_layer,omitempty"`
}

// liveHeapMB is the heap that survives collection. Two collections, because
// sync.Pool contents (the searcher's scratch) survive the first in the victim
// cache: whether a pool happened to be full is not what resident_mb is about.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runWorkload measures one workload end to end and, when traced, layer by
// layer. The returned tracer is nil on an untraced run.
func runWorkload(spec workloadSpec, cfg config) (*workloadReport, *tracer, error) {
	began := time.Now()
	w := spec.make()
	if err := w.generate(cfg.seed, cfg.size); err != nil {
		return nil, nil, fmt.Errorf("generate: %w", err)
	}
	// resident_mb charges the system under test, not the generated inputs
	// the benchmark itself keeps for verification.
	baseMB := liveHeapMB()
	var setups []float64
	phases := map[string][]float64{}
	// A set-up takes from 3 ms (bibnet-serve) to 70 ms (rmat-packed): the
	// quick ones are repeated more often, so that their median is as steady.
	var spent time.Duration
	for i := 0; i < cfg.size.setups || (spent < cfg.size.setupTime && i < maxSetups); i++ {
		if i > 0 {
			w.teardown()
		}
		start := time.Now()
		ph, err := w.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
		for k, v := range ph {
			phases[k] = append(phases[k], v)
		}
		runtime.GC() // the previous set-up's garbage is not the next one's cost
	}
	defer w.teardown()
	residentMB := liveHeapMB() - baseMB
	if err := w.warm(); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}

	c := &checker{}
	e2e, layer := metrics{}, metrics{}
	if err := w.verify(c, layer); err != nil {
		return nil, nil, fmt.Errorf("verify: %w", err)
	}

	runtime.GC()
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	run := closedLoop(w, cfg.timed(), nil)
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)

	rep := &workloadReport{
		Name: spec.name, Why: spec.why, Clients: w.clients(), Primary: familyNames[spec.primary],
		TailPercentile: spec.tail, Ops: len(run.samples), Samples: map[string]int{},
		ListLen: w.listLen(), Setups: len(setups), TimedS: run.wall.Seconds(),
	}
	for _, seen := range run.seen {
		if seen {
			rep.ListCovered++
		}
	}
	lat := make([][]float64, numFamilies)
	for f := family(0); f < numFamilies; f++ {
		lat[f] = run.latencies(f)
		rep.Samples[familyNames[f]] = len(lat[f])
	}

	e2e.set("setup_s", median(setups))
	e2e.set("p50_ms", median(lat[spec.primary]))
	e2e.set("throughput_qps", run.qps())
	e2e.set("resident_mb", residentMB)

	layer.set("tail_ms", percentile(lat[spec.primary], spec.tail))
	layer.set("online_p50_ms", median(lat[famOnline]))
	layer.set("online_tail_ms", percentile(lat[famOnline], spec.tail))
	if len(lat[famExact]) > 0 {
		// Workloads without exact ops in the loop keep the value verify
		// measured on the verification subset.
		layer.set("exact_p50_ms", median(lat[famExact]))
	}
	layer.set("apply_p50_ms", median(lat[famApply]))
	layer.set("online_over_exact_p50", ratio(layer["online_p50_ms"].Value, layer["exact_p50_ms"].Value))
	var tr *tracer
	if cfg.traced {
		tr = newTracer(spec.name)
		runtime.GC()
		traced := closedLoop(w, cfg.timed()/4, tr)
		for _, s := range traced.samples {
			c.check(!s.failed, "traced run: a %s op failed", familyNames[s.family])
		}
		// Untraced over traced latency of the ops both passes ran: the
		// median of the per-op ratios, so that a hiccup on a few ops of the
		// short traced loop does not read as tracing overhead.
		var ratios []float64
		for e, s := range traced.first {
			if traced.seen[e] && run.seen[e] && !s.failed && !run.first[e].failed {
				ratios = append(ratios, ratio(run.first[e].ms, s.ms))
			}
		}
		layer.set("trace.overhead_ratio", median(ratios))
		layer.set("runtime.gc_cycles", float64(gcAfter.NumGC-gcBefore.NumGC))
		layer.set("runtime.gc_pause_ms", float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs)/1e6)
		for k, v := range phases {
			layer.set(k, median(v))
		}
		if err := w.layers(tr, layer); err != nil {
			return nil, nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	if err := w.finish(c); err != nil {
		return nil, nil, fmt.Errorf("finish: %w", err)
	}

	rep.Attempted = len(run.samples) + c.attempted
	rep.Failed = run.failed() + c.failed
	rep.Failures = c.failures
	layer.set("failed_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)))
	if cfg.traced {
		layer.fill(perLayer())
	} else {
		layer.fill(familyMetrics)
	}
	rep.EndToEnd, rep.PerLayer = e2e, layer
	rep.WallS = time.Since(began).Seconds()
	return rep, tr, nil
}

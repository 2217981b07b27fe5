package serve

import (
	"context"
	"errors"
	"strings"
	"sync"

	"roundtriprank"
	"roundtriprank/internal/obs"
	"roundtriprank/internal/topk"
)

// Metrics is rtrankd's metric surface: the obs.Registry behind GET /metrics,
// the engine-level gauges (epoch, caches, cluster, scratch pool), and the
// per-method query histograms fed by the engine's stats hook.
//
// Construction is two-phase because the hook and the engine need each other:
// create Metrics first, pass RecordQuery to the engine via
// roundtriprank.WithQueryStatsHook, then let serve.New bind the engine's
// gauges.
type Metrics struct {
	reg *obs.Registry

	mu       sync.Mutex
	byMethod map[string]*methodMetrics
	bound    bool
}

// methodMetrics is one ranking method's query instrumentation.
type methodMetrics struct {
	hist      *obs.Histogram
	outcomes  map[string]*obs.Counter
	degraded  *obs.Counter
	certified *obs.CountHistogram
	sweeps    *obs.CountHistogram
}

// NewMetrics returns a Metrics over a fresh "rtrank"-namespaced registry.
func NewMetrics() *Metrics {
	return &Metrics{
		reg:      obs.NewRegistry("rtrank"),
		byMethod: map[string]*methodMetrics{},
	}
}

// Registry exposes the underlying registry, e.g. for the shared cliutil HTTP
// middleware to register its http_* families on.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// RecordQuery is the engine stats hook: it counts the query under its
// resolved method and outcome and feeds the method's latency histogram.
// Outcomes are "ok", "canceled" (the caller's context ended the query —
// disconnect or deadline) and "error".
func (m *Metrics) RecordQuery(s roundtriprank.QueryStat) {
	// Lowercased to match the wire spelling ("2sbound", not "2SBound"); the
	// parser is case-insensitive, so the label round-trips into requests.
	mm := m.forMethod(strings.ToLower(s.Method.String()))
	outcome := "ok"
	switch {
	case s.Err == nil:
	case errors.Is(s.Err, context.Canceled), errors.Is(s.Err, context.DeadlineExceeded):
		outcome = "canceled"
	default:
		outcome = "error"
	}
	mm.outcomes[outcome].Inc()
	mm.hist.Observe(s.Elapsed)
	if r := s.Response; r != nil {
		if r.Degraded {
			mm.degraded.Inc()
		}
		mm.certified.Observe(int64(r.CertifiedK))
		mm.sweeps.Observe(int64(r.Sweeps))
	}
}

// forMethod returns (creating on first use) one method's instrumentation.
// The method set is tiny and fixed, so families stay bounded.
func (m *Metrics) forMethod(method string) *methodMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	mm := m.byMethod[method]
	if mm != nil {
		return mm
	}
	labels := `method="` + method + `"`
	mm = &methodMetrics{
		hist: m.reg.Histogram("engine_query_duration_seconds",
			"Ranking query latency, by resolved method.", labels),
		outcomes: map[string]*obs.Counter{},
	}
	for _, outcome := range []string{"ok", "canceled", "error"} {
		mm.outcomes[outcome] = m.reg.Counter("engine_queries_total",
			"Ranking queries executed, by resolved method and outcome.",
			labels+`,outcome="`+outcome+`"`)
	}
	mm.degraded = m.reg.Counter("engine_query_degraded_total",
		"Queries a budget or deadline-derived soft stop ended early (best-effort result returned).",
		labels)
	mm.certified = m.reg.CountHistogram("engine_query_certified_k",
		"Certified result-prefix length per successful query.", labels)
	mm.sweeps = m.reg.CountHistogram("engine_query_stage2_sweeps",
		"Stage-II refinement sweeps per successful query, both neighborhoods, all rounds (zero on exact methods).", labels)
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.5}, {"0.99", 0.99}} {
		h := mm.hist
		m.reg.Gauge("engine_query_latency_seconds",
			"Ranking query latency quantile estimates (log2-bucket resolution).",
			labels+`,quantile="`+q.label+`"`,
			func(qq float64) func() float64 {
				return func() float64 { return h.Quantile(qq).Seconds() }
			}(q.q))
	}
	m.byMethod[method] = mm
	return mm
}

// bindEngine registers the gauges and counter mirrors that read the engine's
// own cumulative stats at scrape time: epoch and fleet lag, vector-cache
// traffic, the FleetStats snapshot (row cache, cluster RPCs, membership), and
// scratch-pool occupancy. Idempotent per Metrics (the second bind is ignored
// so tests can reuse a server).
func (m *Metrics) bindEngine(e *roundtriprank.Engine) {
	m.mu.Lock()
	if m.bound {
		m.mu.Unlock()
		return
	}
	m.bound = true
	m.mu.Unlock()

	m.reg.Gauge("epoch", "Epoch of the serving snapshot.", "",
		func() float64 { return float64(e.Epoch()) })
	m.reg.Gauge("fleet_connected", "1 when the current epoch has connected to its worker fleet.", "",
		func() float64 {
			if e.FleetStats().Connected {
				return 1
			}
			return 0
		})
	m.reg.Gauge("fleet_epoch_lag", "Serving epoch minus the worker fleet's epoch; non-zero while a rollover is reconciling.", "",
		func() float64 {
			st := e.FleetStats()
			if !st.Connected {
				return 0
			}
			return float64(e.Epoch()) - float64(st.Epoch)
		})

	m.reg.CounterFunc("vector_cache_hits_total", "Vector cache hits.", "",
		func() float64 { h, _, _ := e.CacheStats(); return float64(h) })
	m.reg.CounterFunc("vector_cache_misses_total", "Vector cache misses.", "",
		func() float64 { _, mi, _ := e.CacheStats(); return float64(mi) })
	m.reg.Gauge("vector_cache_entries", "Vectors currently cached.", "",
		func() float64 { _, _, n := e.CacheStats(); return float64(n) })

	m.reg.CounterFunc("row_cache_hits_total", "Row cache hits (2sbound-remote).", "",
		func() float64 { return float64(e.FleetStats().CacheHits) })
	m.reg.CounterFunc("row_cache_misses_total", "Row cache misses (2sbound-remote).", "",
		func() float64 { return float64(e.FleetStats().CacheMisses) })
	m.reg.CounterFunc("row_cache_evictions_total", "Row cache evictions.", "",
		func() float64 { return float64(e.FleetStats().CacheEvictions) })
	m.reg.Gauge("row_cache_rows", "Rows currently cached.", "",
		func() float64 { return float64(e.FleetStats().CachedRows) })
	m.reg.CounterFunc("rows_fetched_total", "Rows fetched from workers through the current epoch's fleet handle.", "",
		func() float64 { return float64(e.FleetStats().RowsFetched) })
	m.reg.CounterFunc("cluster_rpcs_total", "Worker RPCs issued through the current epoch's fleet handle: handshake, multiplies, row fetches.", "",
		func() float64 { return float64(e.FleetStats().RPCs) })
	m.reg.CounterFunc("cluster_retries_total", "Worker RPC retries through the current epoch's fleet handle.", "",
		func() float64 { return float64(e.FleetStats().Retries) })

	for _, s := range []struct {
		state string
		count func(roundtriprank.FleetStats) int
	}{
		{"alive", func(st roundtriprank.FleetStats) int { return st.MembersAlive }},
		{"suspect", func(st roundtriprank.FleetStats) int { return st.MembersSuspect }},
		{"dead", func(st roundtriprank.FleetStats) int { return st.MembersDead }},
		{"draining", func(st roundtriprank.FleetStats) int { return st.MembersDraining }},
	} {
		count := s.count
		m.reg.Gauge("fleet_members", "Registered fleet members by liveness state (zero without a fleet manager).",
			`state="`+s.state+`"`,
			func() float64 { return float64(count(e.FleetStats())) })
	}
	m.reg.CounterFunc("fleet_failovers_total", "Calls that succeeded only after routing around a failed replica.", "",
		func() float64 { return float64(e.FleetStats().Failovers) })
	m.reg.Gauge("fleet_replication", "Configured replica count per stripe (zero without a fleet manager).", "",
		func() float64 { return float64(e.FleetStats().Replication) })

	m.reg.Gauge("scratch_pool_in_use", "Pooled online-query scratch objects currently checked out.", "",
		func() float64 { n, _ := topk.PoolStats(); return float64(n) })
	m.reg.Gauge("scratch_pool_peak", "High-water mark of concurrently checked-out scratch objects.", "",
		func() float64 { _, p := topk.PoolStats(); return float64(p) })
}

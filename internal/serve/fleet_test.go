package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"roundtriprank"
	"roundtriprank/internal/cliutil"
	"roundtriprank/internal/testgraphs"
)

// newFleetStack is newTestStack over two loopback stripe workers, so the
// distributed methods and the fleet's counters have something to report.
func newFleetStack(t *testing.T) (*roundtriprank.Engine, *httptest.Server) {
	t.Helper()
	toy := testgraphs.NewToy()
	workers, err := roundtriprank.LoopbackWorkers(toy.Graph, 2)
	if err != nil {
		t.Fatalf("LoopbackWorkers: %v", err)
	}
	m := NewMetrics()
	engine, err := roundtriprank.NewEngine(toy.Graph,
		roundtriprank.WithQueryStatsHook(m.RecordQuery), roundtriprank.WithWorkers(workers...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s := New(engine, m, Config{Workers: len(workers)})
	srv := httptest.NewServer(cliutil.WrapHTTP(s.Handler(), m.Registry(),
		cliutil.HTTPOptions{Routes: Routes(), Exempt: ExemptRoutes()}))
	t.Cleanup(srv.Close)
	for _, method := range []string{"2sbound-remote", "distributed"} {
		if resp, _ := postRank(t, srv, `{"query":["term:spatio"],"k":3,"method":"`+method+`"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /rank status = %d", method, resp.StatusCode)
		}
	}
	return engine, srv
}

// TestMetricsFamiliesOnAFleet pins the /metrics family names of a fleet
// deployment: the fleet's RPC and retry counters appear once, as
// cluster_rpcs_total and cluster_retries_total, and every other family keeps
// its name.
func TestMetricsFamiliesOnAFleet(t *testing.T) {
	engine, srv := newFleetStack(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	var got []string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE rtrank_"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	sort.Strings(got)
	want := []string{
		"cluster_retries_total", "cluster_rpcs_total",
		"engine_queries_total", "engine_query_certified_k", "engine_query_degraded_total",
		"engine_query_duration_seconds", "engine_query_latency_seconds", "engine_query_stage2_sweeps",
		"epoch", "fleet_connected", "fleet_epoch_lag", "fleet_failovers_total", "fleet_members",
		"fleet_replication",
		"http_in_flight", "http_request_duration_seconds", "http_requests_shed_total", "http_requests_total",
		"row_cache_evictions_total", "row_cache_hits_total", "row_cache_misses_total", "row_cache_rows",
		"rows_fetched_total", "scratch_pool_in_use", "scratch_pool_peak",
		"vector_cache_entries", "vector_cache_hits_total", "vector_cache_misses_total",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics families:\n got %v\nwant %v", got, want)
	}
	if rpcs := engine.FleetStats().RPCs; !strings.Contains(string(raw), "rtrank_cluster_rpcs_total "+strconv.FormatInt(rpcs, 10)+"\n") {
		t.Errorf("cluster_rpcs_total does not read FleetStats().RPCs = %d", rpcs)
	}
}

// TestHealthzReportsFleetStats pins /healthz to the engine's FleetStats: the
// RPC and retry counters sit under "cluster" only, the row-serving counters
// under "rows".
func TestHealthzReportsFleetStats(t *testing.T) {
	engine, srv := newFleetStack(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Cluster map[string]int64 `json:"cluster"`
		Rows    map[string]int64 `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	st := engine.FleetStats()
	if st.RPCs == 0 || body.Cluster["rpcs"] != st.RPCs || body.Cluster["retries"] != st.Retries {
		t.Errorf("healthz cluster %v, FleetStats RPCs %d retries %d", body.Cluster, st.RPCs, st.Retries)
	}
	want := map[string]int64{
		"fetched": st.RowsFetched, "cache_hits": st.CacheHits, "cache_misses": st.CacheMisses,
		"evictions": st.CacheEvictions, "cached": int64(st.CachedRows),
	}
	if !reflect.DeepEqual(body.Rows, want) {
		t.Errorf("healthz rows %v, want %v", body.Rows, want)
	}
}

package obs

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketFor(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{1024 * time.Microsecond, 10},
		{time.Second, 20},
		{30 * time.Second, 25},
		{40 * time.Second, NumBuckets}, // beyond the last finite bound
		{time.Hour, NumBuckets},
	}
	for _, c := range cases {
		if got := bucketFor(c.d.Microseconds(), NumBuckets); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every finite bucket bound must map into its own bucket (inclusive
	// upper bound), and one nanosecond above it into the next.
	for i := 0; i < NumBuckets; i++ {
		if got := bucketFor(bucketBound(i).Microseconds(), NumBuckets); got != i {
			t.Errorf("bucketFor(bound %d) = %d, want %d", i, got, i)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 90 fast observations, 10 slow ones: p50 must land in the fast
	// bucket's bound, p99 in the slow one's.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket bound 128µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(80 * time.Millisecond) // bucket bound 131.072ms
	}
	if got, want := h.Quantile(0.5), 128*time.Microsecond; got != want {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got, want := h.Quantile(0.99), 131072*time.Microsecond; got != want {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	if got := h.Count(); got != 100 {
		t.Errorf("count = %d, want 100", got)
	}
	if got, want := h.Sum(), 90*100*time.Microsecond+10*80*time.Millisecond; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestHistogramOverflowQuantile(t *testing.T) {
	var h Histogram
	h.Observe(time.Hour)
	if got, want := h.Quantile(0.5), bucketBound(NumBuckets-1); got != want {
		t.Errorf("overflow quantile = %v, want %v", got, want)
	}
}

// sampleLine matches one Prometheus sample, e.g. `ns_name{a="b"} 12`.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \+Inf$`)

func TestExpositionParses(t *testing.T) {
	r := NewRegistry("test")
	c := r.Counter("http_requests_total", "Requests served.", `path="/rank",code="200"`)
	c.Add(3)
	r.Counter("http_requests_total", "Requests served.", `path="/rank",code="429"`).Inc()
	r.Gauge("in_flight", "Currently executing requests.", "", func() float64 { return 2 })
	r.CounterFunc("cache_hits_total", "Cache hits.", "", func() float64 { return 7 })
	h := r.Histogram("latency_seconds", "Request latency.", `path="/rank"`)
	h.Observe(3 * time.Millisecond)
	h.Observe(5 * time.Second)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()

	for _, want := range []string{
		`test_http_requests_total{path="/rank",code="200"} 3`,
		`test_http_requests_total{path="/rank",code="429"} 1`,
		"# TYPE test_http_requests_total counter",
		"# TYPE test_in_flight gauge",
		"test_in_flight 2",
		"test_cache_hits_total 7",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{path="/rank",le="+Inf"} 2`,
		`test_latency_seconds_count{path="/rank"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}

	// Every non-comment line must be a well-formed sample, HELP/TYPE lines
	// must precede their family exactly once, and histogram buckets must be
	// cumulative (monotonically non-decreasing in le order).
	var lastCum float64 = -1
	helpSeen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			helpSeen[strings.Fields(line)[2]]++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
		if strings.HasPrefix(line, "test_latency_seconds_bucket") {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			if v < lastCum {
				t.Errorf("bucket counts not cumulative at %q (prev %g)", line, lastCum)
			}
			lastCum = v
		}
	}
	for name, n := range helpSeen {
		if n != 1 {
			t.Errorf("HELP for %s appears %d times, want 1", name, n)
		}
	}
}

// TestConcurrentObserve exercises the write path from many goroutines while
// a reader scrapes — meaningful under -race.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry("test")
	h := r.Histogram("latency_seconds", "h", "")
	c := r.Counter("ops_total", "c", "")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
				c.Inc()
				if i%100 == 0 {
					_ = h.Quantile(0.99)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if _, err := r.WriteTo(&sb); err != nil {
				t.Errorf("WriteTo: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestHistogramExpositionGolden pins every /metrics byte of the two histogram
// kinds — one log2-bucket core rendered in seconds × NumBuckets and in raw
// counts × NumCountBuckets — over clamped, zero, boundary and overflow
// observations.
func TestHistogramExpositionGolden(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("latency_seconds", "Latency.", `path="/rank"`)
	for _, d := range []time.Duration{-time.Second, 0, time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond,
		1 << 20 * time.Microsecond, 1 << 25 * time.Microsecond, 1<<25*time.Microsecond + time.Microsecond, time.Hour} {
		h.Observe(d)
	}
	c := r.CountHistogram("rows", "Rows.", "")
	for _, v := range []int64{-4, 0, 1, 2, 3, 1 << 15, 1<<15 + 1, 1 << 40} {
		c.Observe(v)
	}
	if h.Count() != 9 || h.Sum() != time.Hour+(1<<26+1<<20+7)*time.Microsecond || c.Count() != 8 || c.Sum() != 1<<40+1<<16+7 {
		t.Errorf("counts and sums: latency %d / %v, rows %d / %d", h.Count(), h.Sum(), c.Count(), c.Sum())
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != histogramGolden {
		t.Errorf("exposition changed:\n%s\nwant:\n%s", got, histogramGolden)
	}
}

const histogramGolden = `# HELP t_latency_seconds Latency.
# TYPE t_latency_seconds histogram
t_latency_seconds_bucket{path="/rank",le="1e-06"} 3
t_latency_seconds_bucket{path="/rank",le="2e-06"} 4
t_latency_seconds_bucket{path="/rank",le="4e-06"} 5
t_latency_seconds_bucket{path="/rank",le="8e-06"} 5
t_latency_seconds_bucket{path="/rank",le="1.6e-05"} 5
t_latency_seconds_bucket{path="/rank",le="3.2e-05"} 5
t_latency_seconds_bucket{path="/rank",le="6.4e-05"} 5
t_latency_seconds_bucket{path="/rank",le="0.000128"} 5
t_latency_seconds_bucket{path="/rank",le="0.000256"} 5
t_latency_seconds_bucket{path="/rank",le="0.000512"} 5
t_latency_seconds_bucket{path="/rank",le="0.001024"} 5
t_latency_seconds_bucket{path="/rank",le="0.002048"} 5
t_latency_seconds_bucket{path="/rank",le="0.004096"} 5
t_latency_seconds_bucket{path="/rank",le="0.008192"} 5
t_latency_seconds_bucket{path="/rank",le="0.016384"} 5
t_latency_seconds_bucket{path="/rank",le="0.032768"} 5
t_latency_seconds_bucket{path="/rank",le="0.065536"} 5
t_latency_seconds_bucket{path="/rank",le="0.131072"} 5
t_latency_seconds_bucket{path="/rank",le="0.262144"} 5
t_latency_seconds_bucket{path="/rank",le="0.524288"} 5
t_latency_seconds_bucket{path="/rank",le="1.048576"} 6
t_latency_seconds_bucket{path="/rank",le="2.097152"} 6
t_latency_seconds_bucket{path="/rank",le="4.194304"} 6
t_latency_seconds_bucket{path="/rank",le="8.388608"} 6
t_latency_seconds_bucket{path="/rank",le="16.777216"} 6
t_latency_seconds_bucket{path="/rank",le="33.554432"} 7
t_latency_seconds_bucket{path="/rank",le="+Inf"} 9
t_latency_seconds_sum{path="/rank"} 3668.157447
t_latency_seconds_count{path="/rank"} 9
# HELP t_rows Rows.
# TYPE t_rows histogram
t_rows_bucket{le="1"} 3
t_rows_bucket{le="2"} 4
t_rows_bucket{le="4"} 5
t_rows_bucket{le="8"} 5
t_rows_bucket{le="16"} 5
t_rows_bucket{le="32"} 5
t_rows_bucket{le="64"} 5
t_rows_bucket{le="128"} 5
t_rows_bucket{le="256"} 5
t_rows_bucket{le="512"} 5
t_rows_bucket{le="1024"} 5
t_rows_bucket{le="2048"} 5
t_rows_bucket{le="4096"} 5
t_rows_bucket{le="8192"} 5
t_rows_bucket{le="16384"} 5
t_rows_bucket{le="32768"} 6
t_rows_bucket{le="+Inf"} 8
t_rows_sum 1.099511693319e+12
t_rows_count 8
`

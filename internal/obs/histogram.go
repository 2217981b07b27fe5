package obs

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite buckets of a Histogram. Bucket i holds
// observations with duration ≤ 2^i microseconds, so the finite range spans
// 1µs .. 2^25µs ≈ 33.6s in factor-of-two steps; anything slower lands in
// the +Inf overflow slot. That resolution (±2x) is what a log2 histogram
// trades for lock-free constant-space recording, and it is plenty for
// latency alerting.
const NumBuckets = 26

// NumCountBuckets is the number of finite buckets of a CountHistogram.
// Bucket i holds observations ≤ 2^i, so the finite range spans 1 .. 32768 in
// factor-of-two steps — wide enough for any per-query cardinality this repo
// records (certified-K, result sizes, touched-row counts) while keeping the
// exposition short.
const NumCountBuckets = 16

// log2Hist is the log2-bucket core both histogram kinds instantiate with a
// unit and a bucket count: bucket i of the kind's n finite ones counts the
// observations ≤ 2^i units, larger ones land in the overflow slot. observe is
// a few atomic adds — no locks, no allocation — so it is safe on the
// per-request hot path; readers (exposition, Quantile) see a slightly torn
// but monotonic view, which Prometheus scrape semantics tolerate.
type log2Hist struct {
	buckets  [NumBuckets]atomic.Int64 // per finite bucket, non-cumulative; a kind uses its first n
	overflow atomic.Int64             // observations beyond the last finite bound
	count    atomic.Int64
	sum      atomic.Int64 // in the kind's own sum unit
}

// bucketFor returns the index of the bucket, of n finite ones, that holds an
// observation of v units, or n when v exceeds the last finite bound.
func bucketFor(v int64, n int) int {
	if v <= 1 {
		return 0
	}
	// ceil(log2(v)): the smallest i with v <= 2^i.
	return min(bits.Len64(uint64(v-1)), n)
}

func (h *log2Hist) observe(n int, v, sum int64) {
	if i := bucketFor(v, n); i < n {
		h.buckets[i].Add(1)
	} else {
		h.overflow.Add(1)
	}
	h.count.Add(1)
	h.sum.Add(sum)
}

// Count returns the number of observations.
func (h *log2Hist) Count() int64 { return h.count.Load() }

// write renders the histogram as Prometheus `_bucket`/`_sum`/`_count` series
// under the given family name and label fragment; le renders the bound of
// finite bucket i, and sum is the total in the exposed unit.
func (h *log2Hist) write(b *strings.Builder, name, labels string, n int, le func(i int) string, sum float64) {
	var cum int64
	for i := 0; i < n; i++ {
		cum += h.buckets[i].Load()
		writeSample(b, name+"_bucket", joinLabels(labels, `le="`+le(i)+`"`), float64(cum))
	}
	cum += h.overflow.Load()
	writeSample(b, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
	writeSample(b, name+"_sum", labels, sum)
	writeSample(b, name+"_count", labels, float64(h.count.Load()))
}

// Histogram is a log2-bucketed latency histogram: NumBuckets buckets of
// microseconds, exposed in seconds.
type Histogram struct{ log2Hist }

// bucketBound returns the inclusive upper bound of finite bucket i.
func bucketBound(i int) time.Duration {
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Observe records one duration (negative durations are clamped to zero).
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	h.observe(NumBuckets, d.Microseconds(), int64(d))
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q ≤ 1) of the observed
// distribution: the upper bound of the bucket holding the q·count-th
// observation. The estimate is exact to within the bucket's factor-of-two
// width; with no observations it returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return bucketBound(i)
		}
	}
	// Overflow: report the last finite bound (the histogram cannot resolve
	// beyond it).
	return bucketBound(NumBuckets - 1)
}

func (h *Histogram) write(b *strings.Builder, name, labels string) {
	h.log2Hist.write(b, name, labels, NumBuckets, func(i int) string {
		return strconv.FormatFloat(bucketBound(i).Seconds(), 'g', -1, 64)
	}, h.Sum().Seconds())
}

// CountHistogram is a log2-bucketed histogram over small non-negative integer
// observations (counts, not durations): NumCountBuckets buckets of raw counts.
// Zero observations land in the first bucket.
type CountHistogram struct{ log2Hist }

// Observe records one integer observation (negative values are clamped to
// zero).
func (h *CountHistogram) Observe(v int64) {
	v = max(v, 0)
	h.observe(NumCountBuckets, v, v)
}

// Sum returns the total of all observed values.
func (h *CountHistogram) Sum() int64 { return h.sum.Load() }

func (h *CountHistogram) write(b *strings.Builder, name, labels string) {
	h.log2Hist.write(b, name, labels, NumCountBuckets, func(i int) string {
		return strconv.FormatInt(1<<uint(i), 10)
	}, float64(h.Sum()))
}

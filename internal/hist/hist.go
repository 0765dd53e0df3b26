// Package hist provides the repo's shared log-bucketed latency
// histogram: fixed layout, no per-sample allocation, mergeable across
// goroutine-private copies. Server-side middleware metrics and the
// scaletest client fleet's reports share it, so both aggregate
// latencies identically.
package hist

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// buckets log-spaced buckets cover 1µs to ~80s at ~33% growth
// (≈15% relative quantile error), which spans in-process calls to badly
// overloaded servers without per-sample allocation.
const (
	buckets = 64
	base    = float64(time.Microsecond)
	growth  = 1.33
)

// bounds[i] is the inclusive upper bound of bucket i in nanoseconds.
var bounds = func() [buckets]float64 {
	var b [buckets]float64
	for i := range b {
		b[i] = base * math.Pow(growth, float64(i+1))
	}
	b[buckets-1] = math.Inf(1)
	return b
}()

// Histogram is a fixed-layout log-bucketed latency histogram. It is not
// safe for concurrent use; load clients record into private histograms
// and Merge them afterwards. Server-side paths that record from many
// goroutines wrap one in a Sync histogram instead.
type Histogram struct {
	counts [buckets]int64
	total  int64
	sum    time.Duration
	max    time.Duration
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	if d > time.Duration(base) {
		i = int(math.Log(float64(d)/base) / math.Log(growth))
		if i >= buckets {
			i = buckets - 1
		}
	}
	h.counts[i]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.total += o.total
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the exact sum of all recorded observations — the
// numerator Prometheus-style exposition reports as `_sum` (the mean is
// derived, the sum is the primary).
func (h *Histogram) Sum() time.Duration { return h.sum }

// Max returns the largest recorded observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Mean returns the exact arithmetic mean of the observations.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Quantile returns the latency at quantile q in [0,1], resolved to the
// containing bucket's upper bound (the last bucket reports the observed
// maximum). Edge cases, pinned by tests: an empty histogram returns 0
// for every q, and out-of-range q is clamped — q <= 0 reports the
// smallest populated bucket's bound, q >= 1 the observed maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i == buckets-1 || math.IsInf(bounds[i], 1) {
				return h.max
			}
			// The bucket's upper bound, clamped so a sparse tail never
			// reports a quantile above the observed maximum.
			return min(time.Duration(bounds[i]), h.max)
		}
	}
	return h.max
}

// String renders the canonical p50/p95/p99 summary line.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		h.total, round(h.Mean()), round(h.Quantile(0.50)),
		round(h.Quantile(0.95)), round(h.Quantile(0.99)), round(h.max))
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

// Bucket is one populated bucket in export form.
type Bucket struct {
	// UpperNS is the bucket's inclusive upper bound in nanoseconds;
	// -1 marks the unbounded overflow bucket.
	UpperNS int64 `json:"upper_ns"`
	Count   int64 `json:"count"`
}

// Buckets exports the populated buckets in ascending bound order.
// Empty buckets are omitted: the fixed 64-bucket layout is an
// implementation detail, the populated ones are the data.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		upper := int64(-1)
		if !math.IsInf(bounds[i], 1) {
			upper = int64(bounds[i])
		}
		out = append(out, Bucket{UpperNS: upper, Count: c})
	}
	return out
}

// Summary is the histogram's exported JSON form: counts, the canonical
// percentiles in nanoseconds, and the populated buckets. It is a plain
// struct so artifact schemas embedding it round-trip through
// encoding/json without custom marshalers.
type Summary struct {
	Count   int64    `json:"count"`
	MeanNS  int64    `json:"mean_ns"`
	MaxNS   int64    `json:"max_ns"`
	P50NS   int64    `json:"p50_ns"`
	P95NS   int64    `json:"p95_ns"`
	P99NS   int64    `json:"p99_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Summary exports the histogram for persistence (the BENCH_*.json
// artifact schema embeds it per endpoint).
func (h *Histogram) Summary() Summary {
	return Summary{
		Count:   h.Count(),
		MeanNS:  int64(h.Mean()),
		MaxNS:   int64(h.Max()),
		P50NS:   int64(h.Quantile(0.50)),
		P95NS:   int64(h.Quantile(0.95)),
		P99NS:   int64(h.Quantile(0.99)),
		Buckets: h.Buckets(),
	}
}

// Sync is a mutex-guarded Histogram safe for concurrent Record calls —
// the form server middleware uses, where every request goroutine records
// into one shared per-endpoint histogram.
type Sync struct {
	mu sync.Mutex
	h  Histogram
}

// Record adds one observation.
func (s *Sync) Record(d time.Duration) {
	s.mu.Lock()
	s.h.Record(d)
	s.mu.Unlock()
}

// Snapshot returns a copy of the underlying histogram, consistent at
// one instant.
func (s *Sync) Snapshot() Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h
}

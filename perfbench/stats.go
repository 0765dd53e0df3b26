package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Samples keeps every raw observation of one timing. Quantiles are
// computed from the sorted samples, not from histogram buckets, so they
// resolve differences far below the benchmark's bounds.
type Samples []float64

// addDur appends d in milliseconds.
func (s *Samples) addDur(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// Quantile returns the q-quantile by linear interpolation between the
// closest ranks (0 for an empty set).
func (s Samples) Quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	return quantileSorted(v, q)
}

func quantileSorted(v []float64, q float64) float64 {
	if q <= 0 {
		return v[0]
	}
	if q >= 1 {
		return v[len(v)-1]
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(v)-1)
	frac := pos - float64(lo)
	return v[lo] + frac*(v[hi]-v[lo])
}

// Summary is a timing as the benchmark reports it: the median, p90,
// and the highest percentile with at least ten samples beyond it.
type Summary struct {
	N    int
	P50  float64
	P90  float64
	TopQ float64 // e.g. 0.999; 0 when fewer than 20 samples
	Top  float64
}

// tailQuantiles is the ladder the reported tail percentile is taken from.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// Summarize computes the Summary of s.
func (s Samples) Summarize() Summary {
	out := Summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	out.P50 = quantileSorted(v, 0.5)
	out.P90 = quantileSorted(v, 0.9)
	for _, q := range tailQuantiles {
		if float64(len(v))*(1-q) >= 10-1e-9 { // 1-q is inexact in binary
			out.TopQ, out.Top = q, quantileSorted(v, q)
		}
	}
	return out
}

// String renders the summary for the human-readable report.
func (s Summary) String() string {
	if s.TopQ <= 0.9 {
		return fmt.Sprintf("p50 %.4g p90 %.4g (n=%d)", s.P50, s.P90, s.N)
	}
	return fmt.Sprintf("p50 %.4g p90 %.4g p%s %.4g (n=%d)", s.P50, s.P90,
		trimPct(s.TopQ), s.Top, s.N)
}

func trimPct(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1e4)/1e2)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return Samples(xs).Quantile(0.5) }

// windows is how many equal slices each measured phase is cut into.
// The gated metrics are medians over the slices, so interference that
// spoils a slice or two of a run does not move them.
const windows = 5

// slice returns which of the windows slices of [from, from+d) at falls
// in, or -1.
func slice(at, from time.Time, d time.Duration) int {
	if at.Before(from) {
		return -1
	}
	k := int(int64(at.Sub(from)) * windows / int64(d))
	if k >= windows {
		return -1
	}
	return k
}

// WindowQuantile is the median over the slices of [from, from+d) of the
// q-quantile of the latencies measured from inside each slice.
func (t Timing) WindowQuantile(from time.Time, d time.Duration, q float64) float64 {
	per := make([]Samples, windows)
	for i, at := range t.At {
		if k := slice(at, from, d); k >= 0 {
			per[k] = append(per[k], t.Ms[i])
		}
	}
	var xs []float64
	for _, s := range per {
		if len(s) > 0 {
			xs = append(xs, s.Quantile(q))
		}
	}
	return median(xs)
}

// WindowRate is the median over the slices of [from, from+d) of the
// items completed per second in each slice.
func WindowRate(done []Completion, from time.Time, d time.Duration) float64 {
	per := make([]float64, windows)
	for _, c := range done {
		if k := slice(c.At, from, d); k >= 0 {
			per[k] += float64(c.Items)
		}
	}
	for k := range per {
		per[k] /= (d / windows).Seconds()
	}
	return median(per)
}

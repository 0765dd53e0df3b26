package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"yourandvalue/internal/obs"
	"yourandvalue/internal/pme"
)

// warmup is sent before every measured phase and discarded, so
// connections, caches and the Go heap are in steady state when timing
// starts.
const warmup = time.Second

// smallOpenPerS is estimate-small's open-loop rate. A closed loop at
// two connections reaches about 4,000 req/s on a calm 2-core host but
// only about 1,500 while other tenants contend for it; at 1,000 req/s
// the open loop then ran past capacity and its median grew to 26 ms. At
// 500 req/s it stays below half of the contended capacity.
const smallOpenPerS = 500.0

// smallClosedConns is the connection count of estimate-small's gated
// closed loop. One caller measures the per-request path without the
// generator and the server competing for the 2 cores: at two
// connections the p90 was 1.8 times the p50 and its spread over five
// seeds 0.28; at one it was 1.3 times the p50 and its spread 0.17, in
// runs interleaved on the same host.
const smallClosedConns = 1

// Workload is one named traffic mix.
type Workload struct {
	Name  string
	Why   string
	Drive func(ctx context.Context, e *Env) (*Outcome, error)
}

// Env is what a drive needs: the client of the live server, the inputs
// and the run's shape.
type Env struct {
	Client  *Client
	Server  *PME
	In      *Inputs
	Seconds time.Duration
	Workers int
}

// Outcome is one drive's raw result.
type Outcome struct {
	Rec *Recorder
	// Latency holds the samples of the workload's gated request latency
	// (see the notes for what it is per workload). P50 is its gated
	// median, the median over the slices of its phase. CPUUsPerItem is
	// the server's CPU time over the same phase per estimate completed
	// in it.
	Latency      Samples
	P50          float64
	CPUUsPerItem float64
	// Report holds the metrics under their workload-specific names, for
	// the human-readable report.
	Report []Line
	// Scrape is /metrics read right after the measured phase.
	Scrape []obs.Family
}

// Line is one human-readable metric.
type Line struct {
	Name  string
	Value string
	Unit  string
}

var workloads = []Workload{
	{
		Name: "estimate-small",
		Why:  "16-item /v2/estimate batches from one caller in a closed loop, after a reported open loop: per-request work dominates a 16-row walk",
		Drive: func(ctx context.Context, e *Env) (*Outcome, error) {
			// Open loop, printed in the report only: its latency
			// quantiles count every host stall that any request was
			// due in, and swung from 0.8 to 6.6 ms (p90) between
			// identical runs on a shared 2-core host. It gets a third of
			// the measured time, the gated closed loop the rest.
			openFor := e.Seconds / 3
			closedFor := e.Seconds - openFor
			sched := Schedule(e.In.Seed, warmup+openFor, smallOpenPerS, len(e.In.Batches))
			start := time.Now().Add(10 * time.Millisecond)
			rec := merge(runOpen(ctx, e.Client, e.In, sched, start, warmup, e.Workers))
			open := rec.Lat[slotEstimate]
			openP50 := open.WindowQuantile(start.Add(warmup), openFor, 0.5)
			openP90 := open.WindowQuantile(start.Add(warmup), openFor, 0.9)

			// Closed loop, gated: the batches are sent round robin from
			// a seeded offset by one caller.
			from := time.Now().Add(warmup)
			end := from.Add(closedFor)
			var next atomic.Int64
			next.Store(e.In.Seed)
			cpu := e.Server.CPUOver(ctx, from, end)
			closed := merge(runClosed(ctx, smallClosedConns, from, end, func(r *Recorder) (int, error) {
				return e.estimateNext(ctx, &next, r)
			}))
			cpuUs, err := cpuPerItem(cpu, closed.Done)
			if err != nil {
				return nil, err
			}
			lat := closed.Lat[slotEstimate]
			closed.Lat[slotEstimate] = Timing{}
			ips := WindowRate(closed.Done, from, closedFor)
			closed.Done = nil
			rec.Merge(closed)
			p50 := lat.WindowQuantile(from, closedFor, 0.5)
			p90 := lat.WindowQuantile(from, closedFor, 0.9)
			return &Outcome{
				Rec: rec, Latency: lat.Ms, P50: p50, CPUUsPerItem: cpuUs,
				Report: []Line{
					timing("estimate (open loop)", open.Ms),
					{"estimate_p50_ms (open loop)", f4(openP50), "ms"},
					{"estimate_p90_ms (open loop)", f4(openP90), "ms"},
					timing("estimate (closed loop)", lat.Ms),
					{"estimate_p50_ms (closed loop)", f4(p50), "ms"},
					{"estimate_p90_ms (closed loop)", f4(p90), "ms"},
					{"estimate_items_per_s", f4(ips), "1/s"},
				},
			}, nil
		},
	},
	{
		Name: "stream-bulk",
		Why:  "4096-item NDJSON streams in a closed loop: per-item work (decode, encode, 256-row walk) dominates; the batcher only sees size flushes",
		Drive: func(ctx context.Context, e *Env) (*Outcome, error) {
			from := time.Now().Add(warmup)
			end := from.Add(e.Seconds)
			cpu := e.Server.CPUOver(ctx, from, end)
			rec := merge(runClosed(ctx, e.Workers, from, end, func(r *Recorder) (int, error) {
				r.Attempted[slotStream]++
				t0 := time.Now()
				v, cpm, err := e.Client.Stream(ctx, e.In.StreamBody, len(e.In.StreamItems))
				if err != nil {
					r.fail(slotStream, err)
					return 0, err
				}
				r.Lat[slotStream].add(t0, time.Since(t0))
				r.Streams = append(r.Streams, EstReply{Batch: -1, Version: v, CPM: cpm})
				return len(cpm), nil
			}))
			cpuUs, err := cpuPerItem(cpu, rec.Done)
			if err != nil {
				return nil, err
			}
			lat := rec.Lat[slotStream]
			ips := WindowRate(rec.Done, from, e.Seconds)
			return &Outcome{
				Rec: rec, Latency: lat.Ms, CPUUsPerItem: cpuUs,
				P50: lat.WindowQuantile(from, e.Seconds, 0.5),
				Report: []Line{
					timing("stream request (closed loop)", lat.Ms),
					{"stream_p90_ms", f4(lat.WindowQuantile(from, e.Seconds, 0.9)), "ms"},
					{"stream_items_per_s", f4(ips), "1/s"},
				},
			}, nil
		},
	},
}

// estimateNext posts the batch after *next (round robin over all
// batches) and records it into r.
func (e *Env) estimateNext(ctx context.Context, next *atomic.Int64, r *Recorder) (int, error) {
	i := int(uint64(next.Add(1)) % uint64(len(e.In.Batches)))
	r.Attempted[slotEstimate]++
	t0 := time.Now()
	v, cpm, err := e.Client.Estimate(ctx, e.In.EstimateBodies[i])
	if err != nil {
		r.fail(slotEstimate, err)
		return 0, err
	}
	r.Lat[slotEstimate].add(t0, time.Since(t0))
	r.Est = append(r.Est, EstReply{Batch: i, Version: v, CPM: cpm})
	return len(cpm), nil
}

// cpuPerItem waits for the server's CPU seconds over a measured phase
// and divides them, in microseconds, by the estimates completed in it.
func cpuPerItem(cpu func() (float64, error), done []Completion) (float64, error) {
	sec, err := cpu()
	if err != nil {
		return 0, err
	}
	items := 0
	for _, c := range done {
		items += c.Items
	}
	if items == 0 {
		return 0, errors.New("no estimate completed in the measured phase")
	}
	return sec * 1e6 / float64(items), nil
}

func merge(recs []*Recorder) *Recorder {
	out := &Recorder{}
	for _, r := range recs {
		out.Merge(r)
	}
	return out
}

func timing(name string, s Samples) Line {
	return Line{Name: name, Value: s.Summarize().String(), Unit: "ms"}
}

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// itemsOf resolves a reply key to the items that were sent.
func itemsOf(in *Inputs) func(int) []pme.EstimateItem {
	return func(key int) []pme.EstimateItem {
		if key < 0 {
			return in.StreamItems
		}
		return in.Batches[key]
	}
}

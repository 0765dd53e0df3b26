package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"yourandvalue/internal/obs"
	"yourandvalue/internal/obs/trace"
)

// maxSpans bounds the spans a traced run keeps on each side of the
// connection; a 10-second estimate-small run makes about 25,000.
const maxSpans = 200000

// LayerMetric is one per-layer number with the layer it belongs to and
// the end-to-end metric, on the named workload, it should move.
type LayerMetric struct {
	Name  string
	Unit  string
	Layer string
	Moves string
	Value float64
}

// runTraced drives the workload twice, on an untraced and on a traced
// server, then times the layers in process. It reports per-layer
// metrics and writes every span as NDJSON.
func runTraced(ctx context.Context, cfg runConfig) (*Result, error) {
	in, err := BuildInputs(cfg.Seed)
	if err != nil {
		return nil, err
	}
	plain, err := bootAndDrive(ctx, cfg, in, nil)
	if err != nil {
		return nil, err
	}
	tracer := trace.NewTracer(maxSpans)
	traced, err := bootAndDrive(ctx, cfg, in, tracer)
	if err != nil {
		return nil, err
	}

	ms := scrapedLayers(plain.Scrape)
	ms = append(ms, spanLayers(cfg.W, tracer.Snapshot(), traced.serverSpans)...)
	inproc, err := measureLayers(ctx, traced.Model, in, tracer, cfg.Workers)
	if err != nil {
		return nil, err
	}
	ms = append(ms, inproc...)
	overhead := traced.P50 / plain.P50
	// The open loop's lag is how far past due an idle sender woke; it
	// is not charged to the open loop's latencies, which are reported
	// but not gated. stream-bulk has no open loop; its generator delay
	// is the gap between a reply and the next send.
	lag, lagMoves := plain.Rec.Lag, "estimate_p50_ms, estimate_p90_ms (open loop, report only) @ "+cfg.W.Name
	if len(lag) == 0 {
		lag, lagMoves = plain.Rec.Gap, "latency_p50_ms @ "+cfg.W.Name
	}
	ms = append(ms,
		LayerMetric{"bench.generator_lag_p99_ms", "ms", "bench", lagMoves, lag.Quantile(0.99)},
		LayerMetric{"bench.tracing_overhead", "ratio", "bench", "latency_p50_ms (traced / untraced)", overhead},
	)

	path, err := writeSpans(cfg, tracer.Snapshot(), traced.serverSpans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s  seed %d  traced run  spans %s\n", cfg.W.Name, cfg.Seed, path)
	fmt.Printf("  untraced: latency %s, error_rate %d/%d\n", plain.Latency.Summarize(), plain.Failed, plain.Attempted)
	fmt.Printf("  traced:   latency %s, error_rate %d/%d\n", traced.Latency.Summarize(), traced.Failed, traced.Attempted)
	fmt.Printf("  %-44s %14s %-6s %-10s %s\n", "metric", "value", "unit", "layer", "moves")
	res := &Result{
		Correct:   plain.Correct && traced.Correct,
		Attempted: plain.Attempted + traced.Attempted,
		Failed:    plain.Failed + traced.Failed,
		Metrics:   map[string]Metric{},
	}
	for _, m := range ms {
		fmt.Printf("  %-44s %14.4f %-6s %-10s %s\n", m.Name, m.Value, m.Unit, m.Layer, m.Moves)
		res.Metrics[m.Name] = Metric{m.Value, m.Unit}
	}
	return res, nil
}

// tracedRun is a drive plus the spans its server recorded.
type tracedRun struct {
	*Run
	serverSpans []trace.Span
}

// bootAndDrive starts one server (recording request spans when tracer
// is set), drives the workload against it and stops it.
func bootAndDrive(ctx context.Context, cfg runConfig, in *Inputs, tracer *trace.Tracer) (*tracedRun, error) {
	var flags []string
	if tracer != nil {
		flags = []string{"-trace-spans", strconv.Itoa(maxSpans)}
	}
	p, d, err := StartPME(ctx, cfg.PME, flags...)
	if err != nil {
		return nil, err
	}
	defer p.Stop()
	logf("setup %.3fs (tracing %v)", d.Seconds(), tracer != nil)
	run, err := drive(ctx, cfg, p, in, NewClient(p.Base, cfg.Workers, tracer))
	if err != nil {
		return nil, err
	}
	out := &tracedRun{Run: run}
	if tracer != nil {
		if out.serverSpans, err = fetchSpans(p.Base); err != nil {
			return nil, fmt.Errorf("fetching server spans: %w", err)
		}
	}
	return out, nil
}

func fetchSpans(base string) ([]trace.Span, error) {
	resp, err := http.Get(base + "/debug/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/trace: %s", resp.Status)
	}
	return trace.ReadNDJSON(resp.Body)
}

// scrapedLayers reads the batcher, pool and retrain series of the
// untraced server's /metrics.
func scrapedLayers(fams []obs.Family) []LayerMetric {
	var flushes, idle float64
	for _, r := range []string{"size", "idle", "deadline", "backlog", "drain"} {
		v := sample(fams, "pme_batcher_flushes_total", obs.Labels{"reason": r})
		flushes += v
		if r == "idle" {
			idle = v
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const (
		moveSmall = "latency_p50_ms @ estimate-small, server_cpu_us_per_item @ stream-bulk"
		// No workload contributes, so these stay 0 unless the server
		// retrains or drops on its own.
		moveWrite = "none gated: " + movesWrite
	)
	return []LayerMetric{
		{"pme.batcher.rows_per_flush", "rows", "pme", moveSmall,
			ratio(sample(fams, "pme_batcher_rows_total", nil), flushes)},
		{"pme.batcher.idle_flush_share", "ratio", "pme", moveSmall, ratio(idle, flushes)},
		{"pme.batcher.queue_wait_p50_us", "us", "pme", moveSmall,
			histQuantile(fams, "pme_batcher_queue_wait_seconds", 0.5) * 1e6},
		{"pme.retrains", "count", "pme", moveWrite, sample(fams, "pme_retrain_success_total", nil)},
		{"pme.retrain_attempts", "count", "pme", moveWrite, sample(fams, "pme_retrain_attempts_total", nil)},
		{"pme.retrain_failures", "count", "pme", moveWrite, sample(fams, "pme_retrain_failures_total", nil)},
		{"pme.pool_dropped", "count", "pme", moveWrite, sample(fams, "pme_pool_dropped_total", nil)},
	}
}

// histQuantile interpolates the q-quantile of a scraped histogram from
// its cumulative buckets. The buckets grow by a third per step, so this
// is a coarse reading.
func histQuantile(fams []obs.Family, name string, q float64) float64 {
	f, ok := obs.FindFamily(fams, name)
	if !ok {
		return 0
	}
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, s := range f.Samples {
		if s.Name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil { // +Inf
			continue
		}
		bs = append(bs, bucket{le, s.Value})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].n
	prevLE, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if b.n == prevN {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(target-prevN)/(b.n-prevN)
		}
		prevLE, prevN = b.le, b.n
	}
	return bs[len(bs)-1].le
}

// spanLayers derives the server's own time for the workload's route and
// what the client saw on top of it, by joining each client span to the
// server span it caused.
func spanLayers(w Workload, client, server []trace.Span) []LayerMetric {
	route := "v2.estimate"
	if w.Name == "stream-bulk" {
		route = "v2.estimate_stream"
	}
	clientByID := map[trace.SpanID]trace.Span{}
	for _, s := range client {
		clientByID[s.ID] = s
	}
	var srv, over Samples
	for _, s := range server {
		if s.Name != "server."+route {
			continue
		}
		srv = append(srv, float64(s.DurNS)/1e3)
		if c, ok := clientByID[s.Parent]; ok {
			over = append(over, float64(c.DurNS-s.DurNS)/1e3)
		}
	}
	moves := "latency_p50_ms @ " + w.Name
	return []LayerMetric{
		{"pmeserver.server_span_us", "us", "pmeserver", moves + " (route " + route + ")", srv.Quantile(0.5)},
		{"net.client_overhead_us", "us", "net", moves, over.Quantile(0.5)},
	}
}

// spanRecord is one exported span.
type spanRecord struct {
	Source    string            `json:"source"` // "bench" or "server"
	Name      string            `json:"name"`
	RequestID trace.TraceID     `json:"request_id"`
	ID        trace.SpanID      `json:"id"`
	Parent    trace.SpanID      `json:"parent,omitempty"`
	StartNS   int64             `json:"start_unix_nano"`
	EndNS     int64             `json:"end_unix_nano"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

func writeSpans(cfg runConfig, client, server []trace.Span) (string, error) {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.Out, fmt.Sprintf("%s-seed%d.ndjson", cfg.W.Name, cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, set := range []struct {
		src   string
		spans []trace.Span
	}{{"bench", client}, {"server", server}} {
		for _, s := range set.spans {
			if err := enc.Encode(spanRecord{set.src, s.Name, s.Trace, s.ID, s.Parent, s.Start, s.Start + s.DurNS, s.Attrs}); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yourandvalue/internal/core"
	"yourandvalue/internal/obs/trace"
	"yourandvalue/internal/pmeserver"
)

// Client issues the benchmark's requests over loopback, holding at most
// conns connections. It sends bodies built before timing started;
// pmeserver.Client serializes items on every call, and decodes every
// model it fetches, so it would put that work inside the timed window.
type Client struct {
	base   string
	hc     *http.Client
	tracer *trace.Tracer // nil: untraced
}

func NewClient(base string, conns int, tracer *trace.Tracer) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &Client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tracer: tracer}
}

// Close releases the idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// errStatus is a reply outside 2xx (or 304 for a conditional poll).
type errStatus struct {
	route  string
	status int
}

func (e *errStatus) Error() string { return fmt.Sprintf("%s: status %d", e.route, e.status) }

// do sends one request, inside a client span when tracing, and hands
// the response to read before closing it.
func (c *Client) do(ctx context.Context, method, route string, body []byte, hdr http.Header, read func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+"/"+route, rd)
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	sp := c.tracer.Root("client." + strings.ReplaceAll(route, "/", "."))
	if sp != nil {
		trace.Inject(req.Header, sp.Context())
		defer sp.End()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return err
	}
	defer resp.Body.Close()
	err = read(resp)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	return err
}

// Estimate posts one /v2/estimate body and returns the served version
// and estimates.
func (c *Client) Estimate(ctx context.Context, body []byte) (int, []float64, error) {
	var out pmeserver.EstimateResponse
	err := c.do(ctx, http.MethodPost, "v2/estimate", body, jsonHeader, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			return &errStatus{"v2/estimate", resp.StatusCode}
		}
		return json.NewDecoder(resp.Body).Decode(&out)
	})
	return out.ModelVersion, out.EstimatesCPM, err
}

var (
	jsonHeader   = http.Header{"Content-Type": {"application/json"}}
	ndjsonHeader = http.Header{"Content-Type": {"application/x-ndjson"}}
)

// Stream posts an NDJSON body to /v2/estimate/stream and parses every
// result line and the trailer.
func (c *Client) Stream(ctx context.Context, body []byte, n int) (int, []float64, error) {
	cpms := make([]float64, 0, n)
	version := 0
	err := c.do(ctx, http.MethodPost, "v2/estimate/stream", body, ndjsonHeader, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			return &errStatus{"v2/estimate/stream", resp.StatusCode}
		}
		v, err := strconv.Atoi(resp.Header.Get("X-PME-Model-Version"))
		if err != nil {
			return fmt.Errorf("stream: bad model version header: %w", err)
		}
		version = v
		sc := bufio.NewScanner(resp.Body)
		done := false
		for sc.Scan() {
			line := sc.Bytes()
			if rest, ok := bytes.CutPrefix(line, []byte(`{"cpm":`)); ok && bytes.HasSuffix(rest, []byte("}")) {
				f, err := strconv.ParseFloat(string(rest[:len(rest)-1]), 64)
				if err != nil {
					return fmt.Errorf("stream: bad cpm line %q", line)
				}
				cpms = append(cpms, f)
				continue
			}
			var tail struct {
				Done         bool            `json:"done"`
				Items        int             `json:"items"`
				ModelVersion int             `json:"model_version"`
				Error        json.RawMessage `json:"error"`
			}
			if err := json.Unmarshal(line, &tail); err != nil || !tail.Done {
				return fmt.Errorf("stream: unexpected line %q", line)
			}
			if tail.Items != len(cpms) || tail.ModelVersion != version {
				return fmt.Errorf("stream: trailer says %d items at version %d, read %d at %d",
					tail.Items, tail.ModelVersion, len(cpms), version)
			}
			done = true
		}
		if err := sc.Err(); err != nil {
			return err
		}
		if !done {
			return errors.New("stream: no trailer")
		}
		return nil
	})
	return version, cpms, err
}

// FetchModel downloads the serving model as JSON from /v2/model.
func (c *Client) FetchModel(ctx context.Context) (*core.Model, error) {
	var m *core.Model
	err := c.do(ctx, http.MethodGet, "v2/model", nil, nil, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			return &errStatus{"v2/model", resp.StatusCode}
		}
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		m, err = core.DecodeModel(blob)
		return err
	})
	return m, err
}

// Recorder is one request goroutine's tally. Goroutines own theirs and
// the loop merges them after the goroutines end.
type Recorder struct {
	// Lat, Attempted and Failed are indexed by slotEstimate and
	// slotStream.
	Lat       [nSlots]Timing
	Attempted [nSlots]int
	Failed    [nSlots]int
	Lag       Samples      // ms an idle open-loop sender woke past due
	Gap       Samples      // ms between a closed-loop reply and the next send
	Done      []Completion // closed loop: measured requests finished in time
	Errors    map[string]int

	Est     []EstReply
	Streams []EstReply
}

// Timing is one request kind's latencies, each with the instant that
// places it in a slice of its phase: when the request was due (open
// loop) or sent (closed loop).
type Timing struct {
	Ms Samples
	At []time.Time
}

func (t *Timing) add(from time.Time, d time.Duration) {
	t.Ms.addDur(d)
	t.At = append(t.At, from)
}

// Completion is one closed-loop request that finished inside the
// measured window, with the estimates it returned.
type Completion struct {
	At    time.Time
	Items int
}

// EstReply is one estimate reply kept for the output check.
type EstReply struct {
	Batch   int // index into Inputs.Batches; -1 for the stream
	Version int
	CPM     []float64
}

func (r *Recorder) fail(slot int, err error) {
	r.Failed[slot]++
	if r.Errors == nil {
		r.Errors = map[string]int{}
	}
	msg := err.Error()
	if len(msg) > 120 {
		msg = msg[:120]
	}
	r.Errors[msg]++
}

// Merge folds o into r.
func (r *Recorder) Merge(o *Recorder) {
	for k := range r.Lat {
		r.Lat[k].Ms = append(r.Lat[k].Ms, o.Lat[k].Ms...)
		r.Lat[k].At = append(r.Lat[k].At, o.Lat[k].At...)
	}
	r.Lag = append(r.Lag, o.Lag...)
	r.Gap = append(r.Gap, o.Gap...)
	for i := range r.Attempted {
		r.Attempted[i] += o.Attempted[i]
		r.Failed[i] += o.Failed[i]
	}
	r.Done = append(r.Done, o.Done...)
	for k, v := range o.Errors {
		if r.Errors == nil {
			r.Errors = map[string]int{}
		}
		r.Errors[k] += v
	}
	r.Est = append(r.Est, o.Est...)
	r.Streams = append(r.Streams, o.Streams...)
}

// mergeCounts folds in o's request counts, failures and replies but not
// its timings: warm-up traffic is checked like any other.
func (r *Recorder) mergeCounts(o *Recorder) {
	r.Merge(&Recorder{
		Attempted: o.Attempted, Failed: o.Failed, Errors: o.Errors,
		Est: o.Est, Streams: o.Streams,
	})
}

// The request kinds a Recorder keeps apart.
const (
	slotEstimate = iota // /v2/estimate
	slotStream          // /v2/estimate/stream
	nSlots
)

// runOpen sends the estimate schedule sched, relative to start, from
// `workers` goroutines. A request that fell due while every sender was
// still busy with an earlier one is timed from when it was due, so a
// stall also charges the requests queued behind it. An idle sender
// sleeps until the request is due; that request is timed from when the
// sender woke, and how far past due it woke is the generator lag, not
// the server's. Requests due before warm are sent, counted and checked,
// but not timed.
func runOpen(ctx context.Context, c *Client, in *Inputs, sched []Arrival, start time.Time, warm time.Duration, workers int) []*Recorder {
	recs := make([]*Recorder, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range recs {
		rec, warmRec := &Recorder{}, &Recorder{}
		recs[w] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rec.mergeCounts(warmRec)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				a := sched[i]
				r := rec
				if a.At < warm {
					r = warmRec
				}
				due := start.Add(a.At)
				from := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					from = time.Now()
					r.Lag.addDur(from.Sub(due))
				}
				r.Attempted[slotEstimate]++
				v, cpm, err := c.Estimate(ctx, in.EstimateBodies[a.Index])
				if err != nil {
					r.fail(slotEstimate, err)
					continue
				}
				r.Lat[slotEstimate].add(due, time.Since(from))
				r.Est = append(r.Est, EstReply{Batch: a.Index, Version: v, CPM: cpm})
			}
		}()
	}
	wg.Wait()
	return recs
}

// runClosed keeps `workers` requests in flight from start until end:
// each goroutine sends its next request when the previous one returns.
// Only requests sent at or after measureFrom are timed, and only those
// also finished by end are completions; all are counted and checked. The gap
// between one reply and the next send is the generator's own delay.
func runClosed(ctx context.Context, workers int, measureFrom, end time.Time, do func(rec *Recorder) (items int, err error)) []*Recorder {
	recs := make([]*Recorder, workers)
	var wg sync.WaitGroup
	for w := range recs {
		rec, warmRec := &Recorder{}, &Recorder{}
		recs[w] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rec.mergeCounts(warmRec)
			var last time.Time
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				measured := !t0.Before(measureFrom)
				r := rec
				if !measured {
					r = warmRec
				} else if !last.IsZero() {
					r.Gap.addDur(t0.Sub(last))
				}
				items, err := do(r)
				last = time.Now()
				if measured && err == nil && !last.After(end) {
					r.Done = append(r.Done, Completion{last, items})
				}
			}
		}()
	}
	wg.Wait()
	return recs
}

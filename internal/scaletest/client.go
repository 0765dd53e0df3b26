package scaletest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"yourandvalue/internal/geoip"
	"yourandvalue/internal/hist"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/obs/trace"
	"yourandvalue/internal/pmeserver"
	"yourandvalue/internal/stream"
)

// clientStats is one client slot's private accounting, merged into the
// Result after the run. A slot outlives churned client generations: the
// identities change, the counters accumulate.
type clientStats struct {
	ops, requests        int64
	contributed, est     int64
	modelPolls, notMod   int64
	poolFull, errs       int64
	churns, zeroLifeGens int64
	model, contribute    hist.Histogram
	estimate, streamEst  hist.Histogram
}

// clientEnv is the state every client runner in one Run shares.
type clientEnv struct {
	cfg      *Config
	prof     Profile
	events   <-chan stream.Event
	budget   *atomic.Int64
	geo      *geoip.DB
	registry *nurl.Registry
	tracer   *trace.Tracer
}

// runner wraps slot idx's client loop as a harness Runner.
func (e *clientEnv) runner(idx int, st *clientStats) Runner {
	return RunnerFunc(func(ctx context.Context, id string) error {
		e.runClient(ctx, idx, id, st)
		return nil
	})
}

// runClient is one client slot's lifetime: a sequence of operation
// cycles paced by the profile's cadences, possibly spanning several
// churned client generations.
func (e *clientEnv) runClient(ctx context.Context, idx int, id string, st *clientStats) {
	cfg, prof := e.cfg, e.prof
	pc := pmeserver.NewClient(cfg.BaseURL)
	if cfg.HTTPClient != nil {
		pc.HTTP = cfg.HTTPClient
	}
	if e.tracer != nil {
		// Propagate trace context over the wire: a shallow copy of the
		// HTTP client gets a traceparent-injecting transport, so every
		// request whose context carries a span links the server's span to
		// this client's. The caller's shared HTTPClient is not mutated.
		httpc := *pc.HTTP
		httpc.Transport = &trace.Transport{Base: pc.HTTP.Transport}
		pc.HTTP = &httpc
	}

	// Churn lifetimes come from a per-slot substream so runs with the
	// same seed churn identically regardless of scheduling.
	var rng *rand.Rand
	maxLife := cfg.ChurnMaxLifetime
	lifetime := 0
	if prof.Churn {
		if maxLife < 1 {
			maxLife = defaultChurnMaxLifetime
		}
		rng = rand.New(rand.NewSource(cfg.Seed<<16 ^ int64(idx)*0x9e3779b9))
		lifetime = rng.Intn(maxLife + 1)
	}

	etag := ""
	gen := 0
	cyclesInGen := 0
	for cycle := 0; ; cycle++ {
		if ctx.Err() != nil {
			return
		}
		if e.budget.Add(-1) < 0 {
			return
		}
		// Client churn: when this generation's lifetime is spent the
		// client leaves and a fresh one joins in its slot — new identity,
		// cold ETag cache. A drawn lifetime of 0 is a client that joins
		// and leaves without completing an op; the redraw loop terminates
		// because maxLife >= 1 makes a nonzero draw certain eventually,
		// and every zero-length generation is still counted.
		for prof.Churn && cyclesInGen >= lifetime {
			if cyclesInGen == 0 {
				st.zeroLifeGens++
			}
			st.churns++
			gen++
			etag = ""
			cyclesInGen = 0
			lifetime = rng.Intn(maxLife + 1)
		}

		var contributions []pmeserver.Contribution
		var items []pmeserver.EstimateItem
		if prof.NeedsEvents() {
			batch := nextBatch(ctx, e.events, cfg.BatchSize)
			if len(batch) == 0 {
				return // source drained or ctx cancelled
			}
			contributions, items = stream.Convert(batch, e.geo, e.registry)
		}

		root := e.tracer.Root("op").
			SetAttr("client", id).
			SetAttr("gen", strconv.Itoa(gen)).
			SetAttr("strategy", prof.Name)

		if due(prof.PollEvery, cycle) {
			st.modelPolls++
			st.requests++
			sp := e.tracer.Child("model_poll", root.Context())
			t0 := time.Now()
			_, newTag, err := pc.FetchModelV2(trace.ContextWith(ctx, sp.Context()), etag)
			st.model.Record(time.Since(t0))
			switch {
			case errors.Is(err, pmeserver.ErrNotModified):
				st.notMod++
				sp.SetAttr("status", "not_modified")
			case err != nil:
				if ctx.Err() != nil {
					sp.End()
					root.End()
					return
				}
				st.errs++
				sp.SetAttr("status", "error").SetAttr("error", err.Error())
			default:
				etag = newTag
				sp.SetAttr("status", "ok").SetAttr("etag", newTag)
			}
			sp.End()
		}

		if due(prof.ContributeEvery, cycle) && len(contributions) > 0 {
			st.requests++
			sp := e.tracer.Child("contribute", root.Context()).
				SetAttr("batch", strconv.Itoa(len(contributions)))
			t0 := time.Now()
			out, err := pc.ContributeV2(trace.ContextWith(ctx, sp.Context()), contributions)
			st.contribute.Record(time.Since(t0))
			switch {
			case errors.Is(err, pmeserver.ErrPoolFull):
				st.poolFull++
				sp.SetAttr("status", "pool_full")
			case err != nil:
				if ctx.Err() != nil {
					sp.End()
					root.End()
					return
				}
				st.errs++
				sp.SetAttr("status", "error").SetAttr("error", err.Error())
			default:
				st.contributed += int64(out.Accepted)
				sp.SetAttr("status", "ok")
			}
			sp.End()
		}

		if due(prof.StreamEvery, cycle) && len(items) > 0 {
			st.requests++
			sp := e.tracer.Child("estimate_stream", root.Context()).
				SetAttr("items", strconv.Itoa(len(items)))
			t0 := time.Now()
			sum, err := pc.EstimateStreamV2(trace.ContextWith(ctx, sp.Context()), pmeserver.SliceIter(items), nil)
			st.streamEst.Record(time.Since(t0))
			if err != nil {
				if ctx.Err() != nil {
					sp.End()
					root.End()
					return
				}
				st.errs++
				sp.SetAttr("status", "error").SetAttr("error", err.Error())
			} else {
				st.est += int64(sum.Items)
				sp.SetAttr("status", "ok")
			}
			sp.End()
		} else if due(prof.EstimateEvery, cycle) && len(items) > 0 {
			if prof.EstimateBurst > 1 {
				if !e.estimateBurst(ctx, pc, root, st, items, prof.EstimateBurst) {
					root.End()
					return
				}
			} else {
				st.requests++
				sp := e.tracer.Child("estimate", root.Context()).
					SetAttr("items", strconv.Itoa(len(items)))
				t0 := time.Now()
				out, err := pc.EstimateV2(trace.ContextWith(ctx, sp.Context()), items)
				st.estimate.Record(time.Since(t0))
				if err != nil {
					if ctx.Err() != nil {
						sp.End()
						root.End()
						return
					}
					st.errs++
					sp.SetAttr("status", "error").SetAttr("error", err.Error())
				} else {
					st.est += int64(len(out.EstimatesCPM))
					sp.SetAttr("status", "ok")
				}
				sp.End()
			}
		}

		root.End()
		st.ops++
		cyclesInGen++
	}
}

// estimateBurst issues the cycle's items as burst concurrent
// POST /v2/estimate sub-batches — the concurrent-arrival shape the
// server-side micro-batcher coalesces. Per-goroutine outcomes are
// buffered and merged after the join because clientStats histograms
// are not safe for concurrent writes. Returns false when the client
// should stop (context cancelled mid-burst).
func (e *clientEnv) estimateBurst(ctx context.Context, pc *pmeserver.Client, root *trace.ActiveSpan, st *clientStats, items []pmeserver.EstimateItem, burst int) bool {
	n := min(burst, len(items))
	type outcome struct {
		dur time.Duration
		est int64
		err error
	}
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		lo, hi := g*len(items)/n, (g+1)*len(items)/n
		wg.Add(1)
		go func(g, lo, hi int) {
			defer wg.Done()
			sp := e.tracer.Child("estimate", root.Context()).
				SetAttr("items", strconv.Itoa(hi-lo)).
				SetAttr("burst", strconv.Itoa(g))
			t0 := time.Now()
			out, err := pc.EstimateV2(trace.ContextWith(ctx, sp.Context()), items[lo:hi])
			outs[g].dur = time.Since(t0)
			if err != nil {
				outs[g].err = err
				sp.SetAttr("status", "error").SetAttr("error", err.Error())
			} else {
				outs[g].est = int64(len(out.EstimatesCPM))
				sp.SetAttr("status", "ok")
			}
			sp.End()
		}(g, lo, hi)
	}
	wg.Wait()
	for _, o := range outs {
		st.requests++
		st.estimate.Record(o.dur)
		if o.err != nil {
			if ctx.Err() != nil {
				return false
			}
			st.errs++
		} else {
			st.est += o.est
		}
	}
	return true
}

// nextBatch pulls up to n events: blocking for the first, then draining
// whatever is immediately available, so slow sources still make
// progress and fast sources fill whole batches. It returns nil once the
// channel closes or ctx is cancelled.
func nextBatch(ctx context.Context, events <-chan stream.Event, n int) []stream.Event {
	batch := make([]stream.Event, 0, n)
	select {
	case ev, ok := <-events:
		if !ok {
			return nil
		}
		batch = append(batch, ev)
	case <-ctx.Done():
		return nil
	}
	for len(batch) < n {
		select {
		case ev, ok := <-events:
			if !ok {
				return batch
			}
			batch = append(batch, ev)
		default:
			return batch
		}
	}
	return batch
}

// due reports whether a cadence fires on this cycle (cadence 0 never
// fires; cadence 1 fires every cycle, starting with cycle 0).
func due(every, cycle int) bool {
	return every > 0 && cycle%every == 0
}

// clientID names slot i's run.
func clientID(i int) string { return fmt.Sprintf("c%d", i) }

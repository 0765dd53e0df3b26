package scaletest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"yourandvalue/internal/geoip"
	"yourandvalue/internal/hist"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/obs/trace"
	"yourandvalue/internal/scenario"
	"yourandvalue/internal/stream"
)

// Config drives one workload run: a named strategy's client fleet
// against a live pmeserver, fed by a scenario-driven event stream.
type Config struct {
	// BaseURL is the pmeserver root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Strategy names the workload profile (see Strategies).
	Strategy string
	// Clients is the fleet size (default 1).
	Clients int
	// Scenario names the simulated world feeding the clients (default
	// "baseline"); used when no Source/NewSource is supplied.
	Scenario string
	// Scale is the trace scale in (0,1] for scenario-built sources
	// (default 0.05).
	Scale float64
	// Seed drives the scenario traffic and churn lifetimes.
	Seed int64
	// BatchSize is stream events consumed per operation cycle (default 32).
	BatchSize int
	// Buffer bounds the event channel (default 1024).
	Buffer int
	// Duration caps the wall-clock run when positive.
	Duration time.Duration
	// MaxOps caps total operation cycles across the fleet when positive.
	MaxOps int64
	// HTTPClient overrides the transport (e.g. shorter timeouts).
	HTTPClient *http.Client
	// Exec picks the launch strategy (default ConcurrentExecution).
	Exec ExecutionStrategy
	// PerClientTimeout wraps every client run in its own timeout when
	// positive (TimeoutExecution over Exec).
	PerClientTimeout time.Duration
	// Tracer records request-level spans when set.
	Tracer *trace.Tracer
	// ChurnMaxLifetime bounds churned client lifetimes in cycles for
	// churning profiles (default 24). Lifetimes are uniform in
	// [0, ChurnMaxLifetime]; zero-length generations are legal.
	ChurnMaxLifetime int
	// SLO overrides the strategy's default gate. nil applies the
	// profile's DefaultSLO; to disable every gate pass
	// &SLO{MaxErrorRate: -1}.
	SLO *SLO
	// Source feeds the impression traffic when set (one-shot; a drained
	// source ends the run).
	Source stream.Source
	// NewSource builds a fresh source per run — what RunRamp uses so
	// every step replays the same world from the start.
	NewSource func() stream.Source
}

// profile resolves the effective workload profile.
func (c *Config) profile() (Profile, error) {
	name := c.Strategy
	if name == "" {
		name = "mixed"
	}
	return ProfileFor(name)
}

// source resolves the event source for one run.
func (c *Config) source() (stream.Source, error) {
	if c.Source != nil {
		return c.Source, nil
	}
	if c.NewSource != nil {
		return c.NewSource(), nil
	}
	name := c.Scenario
	if name == "" {
		name = "baseline"
	}
	sc, err := scenario.Get(name)
	if err != nil {
		return nil, err
	}
	scale := c.Scale
	if scale <= 0 {
		scale = 0.05
	}
	wcfg := sc.TraceConfig(c.Seed, scale)
	wcfg.Workers = runtime.GOMAXPROCS(0)
	return stream.NewGeneratorSource(wcfg), nil
}

// Result aggregates what one strategy's fleet observed.
type Result struct {
	Strategy string
	Scenario string
	Clients  int
	Elapsed  time.Duration

	Ops         int64 // operation cycles completed
	Requests    int64 // HTTP requests attempted
	Contributed int64 // contributions accepted by the server
	Estimated   int64 // price estimates received
	ModelPolls  int64 // conditional model fetches issued
	NotModified int64 // polls answered 304
	PoolFull    int64 // contribute calls answered 507
	Errors      int64 // transport or non-2xx failures
	Churns      int64 // churned client generations (mixed strategy)
	ZeroLife    int64 // churned generations that completed zero ops

	// MaxHeapBytes is the peak sampled HeapAlloc during the run.
	MaxHeapBytes uint64
	// Endpoints keys: "model", "contribute", "estimate", "stream".
	Endpoints map[string]*hist.Histogram
	// SLO is the evaluated gate (always set by Run).
	SLO *SLOReport
}

// OpsPerSec returns completed operation cycles per second.
func (r *Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// ErrorRate returns Errors/Requests (0 when nothing was attempted).
func (r *Result) ErrorRate() float64 {
	if r.Requests <= 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Requests)
}

// MergedHist folds every endpoint histogram into one per-request
// distribution — what the SLO p99 gate evaluates.
func (r *Result) MergedHist() hist.Histogram {
	var m hist.Histogram
	for _, h := range r.Endpoints {
		m.Merge(h)
	}
	return m
}

// String renders the human-readable report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scaletest %s/%s: %d clients, %s elapsed, %d ops (%.1f ops/s)\n",
		r.Strategy, r.Scenario, r.Clients, r.Elapsed.Round(time.Millisecond), r.Ops, r.OpsPerSec())
	fmt.Fprintf(&b, "  requests=%d contributed=%d estimated=%d polls=%d not-modified(304)=%d pool-full(507)=%d errors=%d",
		r.Requests, r.Contributed, r.Estimated, r.ModelPolls, r.NotModified, r.PoolFull, r.Errors)
	if r.Churns > 0 {
		fmt.Fprintf(&b, " churns=%d", r.Churns)
	}
	fmt.Fprintf(&b, "\n  peak-heap=%.1fMiB\n", float64(r.MaxHeapBytes)/(1<<20))
	for _, k := range []string{"contribute", "estimate", "stream", "model"} {
		if h := r.Endpoints[k]; h != nil && h.Count() > 0 {
			fmt.Fprintf(&b, "  %-10s %s\n", k, h)
		}
	}
	if !r.SLO.OK() {
		fmt.Fprintf(&b, "  %s\n", r.SLO)
	}
	return b.String()
}

// Run executes one workload strategy and reports throughput, latency
// histograms, error counts, peak heap, and the evaluated SLO. It
// returns when the source drains, the op budget or duration is spent,
// or ctx is cancelled (cancellation is a normal end of test). An SLO
// violation is reported in Result.SLO, not as an error — the error path
// is for runs that could not execute.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	prof, err := cfg.profile()
	if err != nil {
		return nil, err
	}
	if cfg.BaseURL == "" {
		return nil, errors.New("scaletest: run needs a BaseURL")
	}
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 32
	}
	if cfg.Buffer < 1 {
		cfg.Buffer = 1024
	}
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	// The source must not outlive the fleet: once every client exits,
	// cancel generation rather than letting it block on the full channel.
	ctx, stopSource := context.WithCancel(ctx)
	defer stopSource()

	var events chan stream.Event
	srcErr := make(chan error, 1)
	if prof.NeedsEvents() {
		src, err := cfg.source()
		if err != nil {
			return nil, err
		}
		events = make(chan stream.Event, cfg.Buffer)
		go func() {
			err := src.Run(ctx, events)
			close(events)
			srcErr <- err
		}()
	}

	var budget atomic.Int64
	if cfg.MaxOps > 0 {
		budget.Store(cfg.MaxOps)
	} else {
		budget.Store(math.MaxInt64)
	}

	// Peak-heap sampler: runtime.ReadMemStats every 20ms. With an
	// in-process server this covers both sides of the load — the
	// capacity-planning number the max-heap SLO gates on.
	heapStop := make(chan struct{})
	heapDone := make(chan struct{})
	var peakHeap uint64
	go func() {
		defer close(heapDone)
		var ms runtime.MemStats
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
			select {
			case <-heapStop:
				return
			case <-tick.C:
			}
		}
	}()

	env := &clientEnv{
		cfg:      &cfg,
		prof:     prof,
		events:   events,
		budget:   &budget,
		geo:      geoip.Default(),
		registry: nurl.Default(),
		tracer:   cfg.Tracer,
	}
	exec := cfg.Exec
	if cfg.PerClientTimeout > 0 {
		exec = TimeoutExecution{Inner: exec, PerRun: cfg.PerClientTimeout}
	}
	h := NewHarness(exec)
	stats := make([]clientStats, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		h.AddRun(prof.Name, clientID(i), env.runner(i, &stats[i]))
	}

	start := time.Now()
	if err := h.Run(ctx); err != nil {
		close(heapStop)
		<-heapDone
		return nil, err
	}
	elapsed := time.Since(start)
	stopSource()
	var srcRunErr error
	if events != nil {
		srcRunErr = <-srcErr
	}
	close(heapStop)
	<-heapDone

	scenarioName := cfg.Scenario
	if scenarioName == "" {
		scenarioName = "baseline"
	}
	res := &Result{
		Strategy: prof.Name,
		Scenario: scenarioName,
		Clients:  cfg.Clients,
		Elapsed:  elapsed,
		Endpoints: map[string]*hist.Histogram{
			"model": {}, "contribute": {}, "estimate": {}, "stream": {},
		},
		MaxHeapBytes: peakHeap,
	}
	for i := range stats {
		st := &stats[i]
		res.Ops += st.ops
		res.Requests += st.requests
		res.Contributed += st.contributed
		res.Estimated += st.est
		res.ModelPolls += st.modelPolls
		res.NotModified += st.notMod
		res.PoolFull += st.poolFull
		res.Errors += st.errs
		res.Churns += st.churns
		res.ZeroLife += st.zeroLifeGens
		res.Endpoints["model"].Merge(&st.model)
		res.Endpoints["contribute"].Merge(&st.contribute)
		res.Endpoints["estimate"].Merge(&st.estimate)
		res.Endpoints["stream"].Merge(&st.streamEst)
	}

	slo := prof.DefaultSLO
	if cfg.SLO != nil {
		slo = *cfg.SLO
	}
	res.SLO = slo.Check(res)

	// A source stopped by the harness's own deadline is a normal end.
	if srcRunErr != nil && !errors.Is(srcRunErr, context.Canceled) && !errors.Is(srcRunErr, context.DeadlineExceeded) {
		return res, srcRunErr
	}
	return res, nil
}

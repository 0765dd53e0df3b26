package scaletest

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
)

// Shared live fixture: one self-hosted pmeserver (small campaign-trained
// model) for every test that needs real requests, built once per package
// run — training dominates the cost, so the tests share it.
var (
	hostOnce sync.Once
	hostFix  *SelfHost
	hostErr  error
)

func liveHost(tb testing.TB) *SelfHost {
	tb.Helper()
	hostOnce.Do(func() {
		hostFix, hostErr = StartSelfHost(7, 0)
	})
	if hostErr != nil {
		tb.Fatal(hostErr)
	}
	return hostFix
}

// testCfg is the small, fast base config the live tests share: an op
// budget ends the run, the duration is only a hang backstop.
func testCfg(tb testing.TB, strategy string, clients int, maxOps int64) Config {
	return Config{
		BaseURL:   liveHost(tb).BaseURL,
		Strategy:  strategy,
		Clients:   clients,
		Scale:     0.02,
		Seed:      11,
		BatchSize: 16,
		Duration:  30 * time.Second,
		MaxOps:    maxOps,
	}
}

// TestRunEstimateHeavy: the harness must complete a budgeted run against
// a live server with zero request errors, populated per-endpoint
// histograms, a sampled peak heap, and a passing default SLO.
func TestRunEstimateHeavy(t *testing.T) {
	res, err := Run(context.Background(), testCfg(t, "estimate-heavy", 2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Requests == 0 || res.Estimated == 0 {
		t.Fatalf("no work done: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
	if res.Endpoints["estimate"].Count() == 0 {
		t.Error("estimate histogram is empty")
	}
	if res.MaxHeapBytes == 0 {
		t.Error("peak heap was never sampled")
	}
	if !res.SLO.OK() {
		t.Errorf("default SLO failed: %s", res.SLO)
	}
	if res.OpsPerSec() <= 0 {
		t.Errorf("ops/sec = %f", res.OpsPerSec())
	}
}

// TestRunEstimateBurst: the burst strategy must fan each cycle's items
// across several concurrent estimate sub-requests (so the estimate
// histogram records a multiple of the cycle count) with zero errors —
// the arrival shape the server-side micro-batcher coalesces.
func TestRunEstimateBurst(t *testing.T) {
	cfg := testCfg(t, "estimate-burst", 2, 32)
	// Big event batches so every cycle carries enough estimate items to
	// actually split four ways.
	cfg.BatchSize = 128
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Estimated == 0 {
		t.Fatalf("no work done: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
	// A non-burst profile issues at most one estimate request per cycle;
	// strictly more proves the concurrent fan-out ran.
	if got := int64(res.Endpoints["estimate"].Count()); got <= res.Ops {
		t.Errorf("estimate requests = %d for %d cycles; want > cycles (burst fan-out)", got, res.Ops)
	}
	if !res.SLO.OK() {
		t.Errorf("default SLO failed: %s", res.SLO)
	}
}

// TestRunModelPollETags: a pure poller fleet needs no event stream and
// must see 304s once its ETag cache warms up.
func TestRunModelPollETags(t *testing.T) {
	res, err := Run(context.Background(), testCfg(t, "model-poll", 2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelPolls == 0 || res.NotModified == 0 {
		t.Fatalf("polls=%d not-modified=%d, want both > 0", res.ModelPolls, res.NotModified)
	}
	if res.Contributed != 0 || res.Estimated != 0 {
		t.Errorf("model-poll issued data-path requests: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
}

// TestRunChurnZeroLifetimes: with the lifetime bound forced to 1 cycle,
// the mixed fleet must churn constantly — including zero-length
// generations (join and leave without an op) — and still terminate.
func TestRunChurnZeroLifetimes(t *testing.T) {
	cfg := testCfg(t, "mixed", 2, 200)
	cfg.ChurnMaxLifetime = 1
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Churns == 0 {
		t.Fatal("no churned generations at lifetime bound 1")
	}
	if res.ZeroLife == 0 {
		t.Error("no zero-length generations despite uniform [0,1] lifetimes")
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
}

// TestRunSLOViolationGate: an unachievable p99 ceiling must land in the
// result's SLO report (not the error path) and map to the dedicated
// exit code.
func TestRunSLOViolationGate(t *testing.T) {
	cfg := testCfg(t, "estimate-heavy", 2, 32)
	cfg.SLO = &SLO{MaxP99: 1 * time.Nanosecond, MaxErrorRate: 0}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLO.OK() {
		t.Fatal("1ns p99 ceiling passed")
	}
	if res.SLO.Violations[0].Gate != "p99" {
		t.Errorf("violations = %+v", res.SLO.Violations)
	}
	if code := ExitCode(nil, []*Result{res}); code != ExitSLOViolation {
		t.Errorf("exit code = %d, want %d", code, ExitSLOViolation)
	}
}

// TestRunRampMidCancel: cancelling the ramp from a step callback must
// return the steps completed so far plus context.Canceled, discarding
// the aborted partial step.
func TestRunRampMidCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	rep, err := RunRamp(ctx, testCfg(t, "estimate-heavy", 0, 0), RampConfig{
		Steps:        []int{1, 1, 1},
		StepDuration: 10 * time.Second,
		StepMaxOps:   16,
		OnStep: func(s StepResult) {
			if done++; done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.Steps) != 1 {
		t.Fatalf("kept %d steps, want only the one completed before cancel", len(rep.Steps))
	}
	if rep.Steps[0].Ops == 0 {
		t.Error("the completed step recorded no work")
	}
}

// TestRunRampKneePlateau: identical consecutive steps (same client
// count, op-budgeted) cannot keep delivering +10% throughput, so the
// detector must flag a plateau knee at the first step.
func TestRunRampKneePlateau(t *testing.T) {
	rep, err := RunRamp(context.Background(), testCfg(t, "estimate-heavy", 0, 0), RampConfig{
		Steps:        []int{1, 1},
		StepDuration: 10 * time.Second,
		StepMaxOps:   16,
		KneeGain:     1000, // any real gain is below +100000%
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 2 {
		t.Fatalf("ran %d steps, want 2", len(rep.Steps))
	}
	if rep.KneeClients != 1 || rep.KneeReason == "" {
		t.Errorf("knee = %d (%q), want the first step flagged", rep.KneeClients, rep.KneeReason)
	}
}

// TestRunHundredClientSmoke: a fleet of 100 concurrent mixed clients
// against an in-process pmeserver must complete a budgeted run with
// zero request errors, exercise every endpoint, and print a latency
// report. The server may retain slightly more contributions than the
// clients counted (a response cut off by the deadline is stored but
// never reported), never fewer.
func TestRunHundredClientSmoke(t *testing.T) {
	srv, err := pmeserver.New(liveHost(t).Server.Model())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := testCfg(t, "mixed", 100, 400)
	cfg.BaseURL = ts.URL
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients != 100 || res.Ops == 0 {
		t.Fatalf("clients=%d ops=%d", res.Clients, res.Ops)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors (result:\n%s)", res.Errors, res)
	}
	if res.Contributed == 0 || res.Estimated == 0 || res.ModelPolls == 0 {
		t.Errorf("an endpoint went unexercised: %+v", res)
	}
	if got := len(srv.Contributions()); int64(got) < res.Contributed {
		t.Errorf("server retained %d contributions, clients counted %d accepted", got, res.Contributed)
	}
	out := res.String()
	for _, want := range []string{"100 clients", "p50=", "p99=", "contribute"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunPoolFullCounted: a saturated contribution pool must surface as
// counted 507s, not as request errors.
func TestRunPoolFullCounted(t *testing.T) {
	srv, err := pmeserver.New(liveHost(t).Server.Model())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMaxPool(1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := testCfg(t, "contribute-heavy", 8, 64)
	cfg.BaseURL = ts.URL
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("pool-full runs must not count request errors, got %d", res.Errors)
	}
	if res.PoolFull == 0 {
		t.Fatal("expected 507 pool-full responses")
	}
}

// TestRunStreamHeavyHotSwap: the stream-heavy fleet drives
// POST /v2/estimate/stream while a publisher goroutine hot-swaps model
// versions through the registry — zero request errors, every estimate
// served, the stream histogram populated and the batch estimate
// endpoint untouched.
func TestRunStreamHeavyHotSwap(t *testing.T) {
	model := liveHost(t).Server.Model()
	registry := pme.NewRegistry()
	first, err := registry.Publish(model)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pmeserver.New(nil, pmeserver.WithRegistry(registry))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	swapCtx, stopSwap := context.WithCancel(context.Background())
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for swapCtx.Err() == nil {
			if _, err := registry.Publish(model); err != nil {
				t.Errorf("publish during load: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	cfg := testCfg(t, "stream-heavy", 32, 192)
	cfg.BaseURL = ts.URL
	res, err := Run(context.Background(), cfg)
	stopSwap()
	<-swapDone
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors during concurrent hot-swap (result:\n%s)", res.Errors, res)
	}
	if res.Estimated == 0 {
		t.Fatal("stream-heavy run returned no estimates")
	}
	if res.Endpoints["stream"].Count() == 0 {
		t.Error("stream histogram recorded nothing")
	}
	if res.Endpoints["estimate"].Count() != 0 {
		t.Error("stream-heavy must not touch the batch estimate endpoint")
	}
	if cur := registry.Current().Version; cur <= first.Version {
		t.Errorf("hot-swapper never advanced the version (current %d)", cur)
	}
}

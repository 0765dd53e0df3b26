package scaletest

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestHarnessCollectsResults: every registered run executes exactly once
// and its outcome lands in Results in registration order.
func TestHarnessCollectsResults(t *testing.T) {
	h := NewHarness(nil)
	var calls atomic.Int64
	boom := errors.New("boom")
	h.AddRun("s", "c0", RunnerFunc(func(ctx context.Context, id string) error {
		calls.Add(1)
		return nil
	}))
	h.AddRun("s", "c1", RunnerFunc(func(ctx context.Context, id string) error {
		calls.Add(1)
		return boom
	}))
	if err := h.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("ran %d runners, want 2", calls.Load())
	}
	res := h.Results()
	if len(res) != 2 || res[0].ID != "c0" || res[1].ID != "c1" {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Err != nil || !errors.Is(res[1].Err, boom) {
		t.Errorf("errors = %v, %v", res[0].Err, res[1].Err)
	}

	// Single-shot contract: second Run errors, late AddRun panics.
	if err := h.Run(context.Background()); err == nil {
		t.Error("second Run did not error")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddRun after Run did not panic")
		}
	}()
	h.AddRun("s", "c2", RunnerFunc(func(ctx context.Context, id string) error { return nil }))
}

// TestTimeoutExecution: the per-run timeout must cut a run's ctx even
// when the harness-wide ctx stays open.
func TestTimeoutExecution(t *testing.T) {
	h := NewHarness(TimeoutExecution{PerRun: 10 * time.Millisecond})
	var sawDeadline atomic.Bool
	h.AddRun("s", "c0", RunnerFunc(func(ctx context.Context, id string) error {
		<-ctx.Done()
		sawDeadline.Store(errors.Is(ctx.Err(), context.DeadlineExceeded))
		return nil
	}))
	if err := h.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !sawDeadline.Load() {
		t.Error("run did not see its per-run deadline")
	}
}

// TestRatePacedExecutionCancel: cancelling mid-stagger must still launch
// (and finish) every run rather than deadlocking the launcher.
func TestRatePacedExecutionCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var launched atomic.Int64
	fns := make([]func(context.Context), 8)
	for i := range fns {
		fns[i] = func(ctx context.Context) { launched.Add(1) }
	}
	cancel()
	RatePacedExecution{Interval: time.Hour}.Execute(ctx, fns)
	if launched.Load() != 8 {
		t.Fatalf("launched %d runs after cancel, want all 8", launched.Load())
	}
}

// TestGeometricSteps: doubling series, always ending exactly at the
// limit even off the doubling grid.
func TestGeometricSteps(t *testing.T) {
	for _, tc := range []struct {
		start, limit int
		want         []int
	}{
		{2, 16, []int{2, 4, 8, 16}},
		{2, 12, []int{2, 4, 8, 12}},
		{1, 1, []int{1}},
		{0, 5, []int{1, 2, 4, 5}},
		{8, 4, []int{8}},
	} {
		if got := GeometricSteps(tc.start, tc.limit); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("GeometricSteps(%d,%d) = %v, want %v", tc.start, tc.limit, got, tc.want)
		}
	}
}

// TestWorkloadRegistry: every named strategy resolves, unknown names
// fail with the available list, and cadence math fires on cycle 0.
func TestWorkloadRegistry(t *testing.T) {
	names := Strategies()
	want := []string{"contribute-heavy", "estimate-burst", "estimate-heavy", "mixed", "model-poll", "stream-heavy"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Strategies() = %v, want %v", names, want)
	}
	for _, n := range names {
		p, err := ProfileFor(n)
		if err != nil || p.Name != n {
			t.Errorf("ProfileFor(%q) = %+v, %v", n, p, err)
		}
	}
	if _, err := ProfileFor("nope"); err == nil {
		t.Error("unknown strategy resolved")
	}
	if p, _ := ProfileFor("model-poll"); p.NeedsEvents() {
		t.Error("model-poll must not consume the event stream")
	}
	if p, _ := ProfileFor("mixed"); !p.NeedsEvents() || !p.Churn {
		t.Error("mixed must consume events and churn")
	}
	if due(0, 0) || !due(1, 0) || !due(4, 8) || due(4, 9) {
		t.Error("cadence math broken")
	}
}

// TestRunConfigValidation: missing essentials are rejected up front,
// before any client starts.
func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Strategy: "mixed"}); err == nil {
		t.Error("run without a BaseURL accepted")
	}
	if _, err := Run(context.Background(), Config{Strategy: "nope", BaseURL: "http://x"}); err == nil {
		t.Error("run with an unknown strategy accepted")
	}
}

// TestExitCode: hard errors beat SLO violations beat OK.
func TestExitCode(t *testing.T) {
	ok := &Result{SLO: &SLOReport{}}
	bad := &Result{SLO: &SLOReport{Violations: []Violation{{Gate: "p99"}}}}
	if c := ExitCode(errors.New("x"), []*Result{ok}); c != ExitError {
		t.Errorf("hard error → %d, want %d", c, ExitError)
	}
	if c := ExitCode(nil, []*Result{ok, bad}); c != ExitSLOViolation {
		t.Errorf("violation → %d, want %d", c, ExitSLOViolation)
	}
	if c := ExitCode(nil, []*Result{ok, nil}); c != ExitOK {
		t.Errorf("clean run → %d, want %d", c, ExitOK)
	}
}

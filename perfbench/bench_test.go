package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/weblog"
)

var (
	modelOnce sync.Once
	testModel *core.Model
	modelErr  error
)

// smallModel trains a small real forest on probing-campaign records, in
// well under a second, published as version 1.
func smallModel(t *testing.T) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: 2})
		cfg := campaign.A1Config(weblog.NewCatalog(60, 30), 25, 3)
		cfg.Setups = cfg.Setups[:36]
		rep, err := campaign.NewEngine(eco).Run(cfg)
		if err != nil {
			modelErr = err
			return
		}
		eng := core.NewPME(4)
		eng.ForestSize = 10
		eng.CVFolds, eng.CVRuns = 5, 1
		m, err := eng.Train(rep.Records, core.TrainConfig{})
		if err != nil {
			modelErr = err
			return
		}
		testModel = m.CloneWithVersion(1, time.Time{})
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return testModel
}

// expectedOutputs is what the output check would demand of every batch
// and of the stream.
func expectedOutputs(t *testing.T, in *Inputs) [][]float64 {
	t.Helper()
	c, err := coreFor(smallModel(t))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]float64
	for _, items := range append(append([][]pme.EstimateItem(nil), in.Batches...), in.StreamItems) {
		res, err := c.EstimateBatch(context.Background(), items)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.EstimatesCPM)
	}
	return out
}

func schedule(seed int64, in *Inputs) []Arrival {
	return Schedule(seed, 3*time.Second, smallOpenPerS, len(in.Batches))
}

func TestSameSeedSameInputs(t *testing.T) {
	a, err := BuildInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildInputs(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.EstimateBodies, b.EstimateBodies) || !bytes.Equal(a.StreamBody, b.StreamBody) ||
		!reflect.DeepEqual(a.Contribs, b.Contribs) {
		t.Fatal("seed 7 built different request bodies twice")
	}
	if !reflect.DeepEqual(schedule(7, a), schedule(7, b)) {
		t.Fatal("seed 7 built different schedules twice")
	}
	if ea, eb := expectedOutputs(t, a), expectedOutputs(t, b); !reflect.DeepEqual(bits(ea), bits(eb)) {
		t.Fatal("seed 7 expects different outputs twice")
	}

	if reflect.DeepEqual(a.EstimateBodies, c.EstimateBodies) || bytes.Equal(a.StreamBody, c.StreamBody) ||
		reflect.DeepEqual(a.Contribs, c.Contribs) {
		t.Fatal("seeds 7 and 8 built the same request bodies")
	}
	if reflect.DeepEqual(schedule(7, a), schedule(8, c)) {
		t.Fatal("seeds 7 and 8 built the same schedules")
	}
	if reflect.DeepEqual(bits(expectedOutputs(t, a)), bits(expectedOutputs(t, c))) {
		t.Fatal("seeds 7 and 8 expect the same outputs")
	}
}

func TestStreamItemsDistinct(t *testing.T) {
	in, err := BuildInputs(14) // yields too few items at the first scale tried
	if err != nil {
		t.Fatal(err)
	}
	if len(in.StreamItems) != streamItems {
		t.Fatalf("stream has %d items, want %d", len(in.StreamItems), streamItems)
	}
	seen := map[pme.EstimateItem]bool{}
	for _, it := range in.StreamItems {
		if seen[it] {
			t.Fatalf("stream repeats %+v", it)
		}
		seen[it] = true
	}
}

func bits(xss [][]float64) [][]uint64 {
	out := make([][]uint64, len(xss))
	for i, xs := range xss {
		for _, x := range xs {
			out[i] = append(out[i], math.Float64bits(x))
		}
	}
	return out
}

// corrupting wraps a pmeserver handler and, for the /v2/estimate reply
// number `nth` (from 0), moves one estimate by one unit in the last place
// before it reaches the client.
func corrupting(h http.Handler, nth int) http.Handler {
	var mu sync.Mutex
	seen := 0
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/estimate" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		mu.Lock()
		hit := seen == nth
		seen++
		mu.Unlock()
		body := rec.Body.Bytes()
		if hit {
			var resp pmeserver.EstimateResponse
			if err := json.Unmarshal(body, &resp); err == nil && len(resp.EstimatesCPM) > 0 {
				resp.EstimatesCPM[0] = math.Nextafter(resp.EstimatesCPM[0], math.Inf(1))
				body, _ = json.Marshal(resp)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
}

func TestCorruptedReplyIsCaught(t *testing.T) {
	m := smallModel(t)
	in, err := BuildInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pmeserver.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(corrupting(srv.Handler(), 2))
	defer hs.Close()

	ctx := context.Background()
	c := NewClient(hs.URL, 1, nil)
	defer c.Close()
	ref := NewVerifier()
	served, err := c.FetchModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Add(served); err != nil {
		t.Fatal(err)
	}

	var replies []EstReply
	for i := 0; i < 5; i++ {
		v, cpm, err := c.Estimate(ctx, in.EstimateBodies[i])
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, EstReply{Batch: i, Version: v, CPM: cpm})
	}
	// A reply at a version the check has no reference for is not
	// verifiable, and counts as failed too.
	replies = append(replies, EstReply{Batch: 0, Version: 99, CPM: replies[0].CPM})

	res, err := ref.Check(replies, itemsOf(in))
	if err != nil {
		t.Fatal(err)
	}
	want := CheckResult{Checked: 5, Mismatched: 1, Unverifiable: 1}
	if res != want {
		t.Fatalf("check = %+v, want %+v", res, want)
	}
}

func TestStreamRepliesAreChecked(t *testing.T) {
	m := smallModel(t)
	in, err := BuildInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pmeserver.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL, 1, nil)
	defer c.Close()
	v, cpm, err := c.Stream(context.Background(), in.StreamBody, len(in.StreamItems))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewVerifier()
	if err := ref.Add(m); err != nil {
		t.Fatal(err)
	}
	bad := append([]float64(nil), cpm...)
	bad[len(bad)-1] = math.Nextafter(bad[len(bad)-1], 0)
	res, err := ref.Check([]EstReply{{Batch: -1, Version: v, CPM: cpm}, {Batch: -1, Version: v, CPM: bad}}, itemsOf(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := (CheckResult{Checked: 2, Mismatched: 1}); res != want {
		t.Fatalf("check = %+v, want %+v", res, want)
	}
}

func TestSummaryTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		topQ float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		s := make(Samples, tc.n)
		for i := range s {
			s[i] = float64(i)
		}
		sum := s.Summarize()
		if sum.TopQ != tc.topQ {
			t.Errorf("n=%d: top quantile %g, want %g", tc.n, sum.TopQ, tc.topQ)
		}
		if beyond := float64(tc.n) * (1 - sum.TopQ); sum.TopQ > 0 && beyond < 10-1e-9 {
			t.Errorf("n=%d: only %g samples beyond p%g", tc.n, beyond, 100*sum.TopQ)
		}
		if sum.P50 != float64(tc.n-1)/2 {
			t.Errorf("n=%d: median %g", tc.n, sum.P50)
		}
	}
}

func TestWindowMediansIgnoreOneSpoiledSlice(t *testing.T) {
	from := time.Unix(2000, 0)
	d := time.Duration(windows) * time.Second
	var tm Timing
	var done []Completion
	for i := 0; i < windows*100; i++ {
		at := from.Add(time.Duration(i) * d / time.Duration(windows*100))
		ms := 1.0
		items := 10
		if i < 100 { // the first slice is ten times slower
			ms, items = 10, 1
		}
		tm.Ms = append(tm.Ms, ms)
		tm.At = append(tm.At, at)
		done = append(done, Completion{at, items})
	}
	// Samples outside the window are ignored.
	tm.Ms = append(tm.Ms, 99)
	tm.At = append(tm.At, from.Add(-time.Millisecond))
	if got := tm.WindowQuantile(from, d, 0.9); got != 1 {
		t.Errorf("windowed p90 = %g, want 1", got)
	}
	if got := WindowRate(done, from, d); got != 1000 {
		t.Errorf("windowed rate = %g, want 1000", got)
	}
}

func TestDistinctPrefix(t *testing.T) {
	a, b, c := pme.EstimateItem{City: "a"}, pme.EstimateItem{City: "b"}, pme.EstimateItem{City: "c"}
	if got := distinctPrefix([]pme.EstimateItem{a, b, c, a}, 3); len(got) != 3 {
		t.Errorf("distinct first 3 items: got %v", got)
	}
	// Too few items and a repeat within the prefix both send
	// BuildInputs to the next scale.
	if got := distinctPrefix([]pme.EstimateItem{a, b}, 3); got != nil {
		t.Errorf("2 items for 3: got %v", got)
	}
	if got := distinctPrefix([]pme.EstimateItem{a, b, a, c}, 3); got != nil {
		t.Errorf("repeat in the first 3: got %v", got)
	}
}

// An open-loop request that falls due while its sender is busy is timed
// from when it was due; one whose sender was idle is timed from when the
// sender woke, so its oversleep is not charged to the server.
func TestOpenLoopTimedFromDueOnlyWhenBusy(t *testing.T) {
	m := smallModel(t)
	in, err := BuildInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pmeserver.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	first := true
	h := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		stall := first && r.URL.Path == "/v2/estimate"
		first = first && !stall
		mu.Unlock()
		if stall {
			time.Sleep(100 * time.Millisecond)
		}
		h.ServeHTTP(w, r)
	}))
	defer hs.Close()
	c := NewClient(hs.URL, 1, nil)
	defer c.Close()

	// One sender, a request every 20ms: the first stalls 100ms, so the
	// next four are due while the sender is busy.
	var sched []Arrival
	for k := 0; k < 20; k++ {
		sched = append(sched, Arrival{At: time.Duration(k) * 20 * time.Millisecond, Index: k % len(in.Batches)})
	}
	start := time.Now().Add(5 * time.Millisecond)
	rec := merge(runOpen(context.Background(), c, in, sched, start, 0, 1))
	lat := rec.Lat[slotEstimate]
	if len(lat.Ms) != len(sched) || rec.Failed[slotEstimate] != 0 {
		t.Fatalf("%d timed, %d failed of %d", len(lat.Ms), rec.Failed[slotEstimate], len(sched))
	}
	// The request due at 20ms was sent at about 100ms.
	if lat.Ms[1] < 60 {
		t.Errorf("request due during the stall took %.1fms, want it timed from due (about 80ms)", lat.Ms[1])
	}
	// The last requests found the sender idle: it slept, woke and sent.
	if len(rec.Lag) == 0 {
		t.Fatal("no generator lag recorded for idle sends")
	}
	if last := lat.Ms[len(lat.Ms)-1]; last > 50 {
		t.Errorf("idle send took %.1fms", last)
	}
}

// The CPU clock reader counts CPU time the process spends and not time
// it sleeps.
func TestProcessCPUSeconds(t *testing.T) {
	pid := os.Getpid()
	a, err := processCPUSeconds(pid)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	b, err := processCPUSeconds(pid)
	if err != nil {
		t.Fatal(err)
	}
	for x, end := 0.0, time.Now().Add(100*time.Millisecond); time.Now().Before(end); x++ {
		_ = math.Sqrt(x)
	}
	c, err := processCPUSeconds(pid)
	if err != nil {
		t.Fatal(err)
	}
	if slept, spun := b-a, c-b; slept > 0.02 || spun < 0.05 {
		t.Errorf("CPU seconds: %.3f while sleeping 50ms, %.3f while spinning 100ms", slept, spun)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"yourandvalue/internal/core"
	"yourandvalue/internal/mlkit"
	"yourandvalue/internal/obs/trace"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
)

// layerBudget is roughly how long each in-process layer is timed.
const layerBudget = 250 * time.Millisecond

// retrainCount is the retrain sample size the write-path layers are
// timed at: cmd/pme's -retrain-count set to 1000.
const retrainCount = 1000

// movesWrite names what the write-path layers move. No gated workload
// contributes, so they move no gated metric; see NOTES.md.
const movesWrite = "contribute latency, model refresh and model download time"

// contribPerAdd is how many contributions one pool add carries, as
// many as an extension posts to /v2/contribute at once.
const contribPerAdd = 16

// perCall times op in groups of k calls until budget is spent (and at
// least five groups ran) and returns the median time of one call in ns.
func perCall(budget time.Duration, k int, op func(i int)) float64 {
	var xs []float64
	deadline := time.Now().Add(budget)
	for i := 0; len(xs) < 5 || time.Now().Before(deadline); {
		t0 := time.Now()
		for j := 0; j < k; j++ {
			op(i)
			i++
		}
		xs = append(xs, float64(time.Since(t0))/float64(k))
	}
	return median(xs)
}

// measureLayers times the public entry points of pmeserver, pme, core
// and mlkit in process on the model the server was serving, one span
// per layer measurement.
func measureLayers(ctx context.Context, model *core.Model, in *Inputs, tracer *trace.Tracer, workers int) ([]LayerMetric, error) {
	root := tracer.Root("bench.layers")
	defer root.End()
	var out []LayerMetric
	var firstErr error
	add := func(name, unit, layer, moves string, f func() (float64, error)) {
		if firstErr != nil {
			return
		}
		sp := tracer.Child("layer."+name, root.Context())
		v, err := f()
		sp.End()
		if err != nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
			return
		}
		out = append(out, LayerMetric{name, unit, layer, moves, v})
	}
	const (
		movesSmall  = "latency_p50_ms, server_cpu_us_per_item @ estimate-small"
		movesStream = "server_cpu_us_per_item @ stream-bulk"
		movesNone   = "none gated: " + movesWrite
	)
	small := in.Batches[0]

	// pmeserver: the handler as cmd/pme mounts it, batcher included.
	srv, err := pmeserver.New(model, pmeserver.WithCoreOptions(pme.WithBatcher(pme.BatcherConfig{})))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	serve := func(path string, body []byte) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, rec.Code)
		}
		return nil
	}
	add("pmeserver.estimate_serve_us", "us", "pmeserver", movesSmall, func() (float64, error) {
		var err error
		d := perCall(layerBudget, 1, func(i int) {
			if e := serve("/v2/estimate", in.EstimateBodies[i%len(in.EstimateBodies)]); e != nil {
				err = e
			}
		})
		return d / 1e3, err
	})
	add("pmeserver.estimate_decode_us", "us", "pmeserver", movesSmall, func() (float64, error) {
		var err error
		d := perCall(layerBudget, 16, func(i int) {
			var req pmeserver.EstimateRequest
			if e := json.NewDecoder(bytes.NewReader(in.EstimateBodies[i%len(in.EstimateBodies)])).Decode(&req); e != nil {
				err = e
			}
		})
		return d / 1e3, err
	})
	direct, err := coreFor(model)
	if err != nil {
		return nil, err
	}
	est, err := direct.EstimateBatch(ctx, small)
	if err != nil {
		return nil, err
	}
	reply := pmeserver.EstimateResponse{ModelVersion: est.Version, EstimatesCPM: est.EstimatesCPM}
	add("pmeserver.estimate_reply_us", "us", "pmeserver", movesSmall, func() (float64, error) {
		var err error
		d := perCall(layerBudget, 16, func(int) {
			if e := json.NewEncoder(io.Discard).Encode(reply); e != nil {
				err = e
			}
		})
		return d / 1e3, err
	})
	lines := bytes.Split(bytes.TrimSpace(in.StreamBody), []byte("\n"))
	add("pmeserver.stream_decode_ns_per_item", "ns", "pmeserver", movesStream, func() (float64, error) {
		var err error
		d := perCall(layerBudget, 256, func(i int) {
			var it pme.EstimateItem
			if e := json.Unmarshal(lines[i%len(lines)], &it); e != nil {
				err = e
			}
		})
		return d, err
	})
	add("pmeserver.stream_serve_ns_per_item", "ns", "pmeserver", movesStream, func() (float64, error) {
		var err error
		d := perCall(4*layerBudget, 1, func(int) {
			if e := serve("/v2/estimate/stream", in.StreamBody); e != nil {
				err = e
			}
		})
		return d / float64(len(in.StreamItems)), err
	})

	// pme: the service core, direct and through the batcher.
	add("pme.session_open_us", "us", "pme", movesSmall, func() (float64, error) {
		var err error
		d := perCall(layerBudget, 256, func(int) {
			if _, e := direct.OpenEstimateSession(ctx); e != nil {
				err = e
			}
		})
		return d / 1e3, err
	})
	add("pme.estimate_batch_us", "us", "pme", movesSmall, func() (float64, error) {
		return estimateBatchUS(ctx, direct, in, 1)
	})
	batched, err := coreFor(model, pme.WithBatcher(pme.BatcherConfig{}))
	if err != nil {
		return nil, err
	}
	defer batched.Close()
	add("pme.estimate_batch_batched_us", "us", "pme", movesSmall, func() (float64, error) {
		return estimateBatchUS(ctx, batched, in, 1)
	})
	add("pme.estimate_batch_batched_par_us", "us", "pme", movesSmall+" (one caller per CPU)", func() (float64, error) {
		return estimateBatchUS(ctx, batched, in, workers)
	})
	contribs := in.Contribs
	add("pme.pool_add_us", "us", "pme", movesNone, func() (float64, error) {
		pool := pme.NewPool(0)
		n := len(contribs) / contribPerAdd
		d := perCall(layerBudget, 1, func(i int) {
			if pool.Len() > pme.DefaultMaxPool/2 {
				pool.Drain()
			}
			j := (i % n) * contribPerAdd
			pool.Add(contribs[j : j+contribPerAdd])
		})
		return d / 1e3, nil
	})
	sample := retrainSample(contribs)
	add("pme.retrain_s", "s", "pme", movesNone, func() (float64, error) {
		var xs []float64
		for i := 0; i < 3; i++ {
			reg := pme.NewRegistry()
			if _, err := reg.Publish(model); err != nil {
				return 0, err
			}
			pool := pme.NewPool(0)
			pool.Add(sample)
			rt := pme.NewRetrainer(reg, pool, pme.RetrainConfig{MinSamples: retrainCount, Seed: 101})
			t0 := time.Now()
			if _, err := rt.RetrainOnce(ctx); err != nil {
				return 0, err
			}
			xs = append(xs, time.Since(t0).Seconds())
		}
		return median(xs), nil
	})
	add("pme.publish_ms", "ms", "pme", movesNone, func() (float64, error) {
		reg := pme.NewRegistry()
		var err error
		d := perCall(layerBudget, 1, func(int) {
			if _, e := reg.Publish(model); e != nil {
				err = e
			}
		})
		return d / 1e6, err
	})

	// core: feature encoding and model serialization.
	feats := model.Features
	row := make([]float64, feats.Dim())
	add("core.encode_ns_per_item", "ns", "core", movesStream, func() (float64, error) {
		d := perCall(layerBudget, 256, func(i int) {
			feats.EncodeStringsInto(row, stringContext(&in.StreamItems[i%len(in.StreamItems)]))
		})
		return d, nil
	})
	add("core.model_encode_ms", "ms", "core", movesNone, func() (float64, error) {
		var err error
		d := perCall(layerBudget, 1, func(int) {
			if _, e := model.Encode(); e != nil {
				err = e
			}
			if _, e := model.EncodeCompact(); e != nil {
				err = e
			}
		})
		return d / 1e6, err
	})
	blob, err := model.Encode()
	if err != nil {
		return nil, err
	}
	flat, err := model.EncodeCompact()
	if err != nil {
		return nil, err
	}
	out = append(out,
		LayerMetric{"core.model_json_bytes", "bytes", "core", movesNone, float64(len(blob))},
		LayerMetric{"core.model_flat_bytes", "bytes", "core", movesNone, float64(len(flat))},
	)

	// mlkit: the forest walk at the two chunk sizes the server uses, and
	// training on the retrain sample.
	ff := model.FlatForest()
	rows := make([][]float64, len(in.StreamItems))
	for i := range rows {
		rows[i] = feats.FromStrings(stringContext(&in.StreamItems[i]))
	}
	cls := make([]int, 256)
	for _, chunk := range []int{16, 256} {
		moves := movesSmall
		if chunk == 256 {
			moves = movesStream
		}
		add(fmt.Sprintf("mlkit.walk_ns_per_item_chunk%d", chunk), "ns", "mlkit", moves, func() (float64, error) {
			n := len(rows) / chunk
			d := perCall(layerBudget, 1, func(i int) {
				j := (i % n) * chunk
				ff.PredictInto(cls[:chunk], rows[j:j+chunk])
			})
			return d / float64(chunk), nil
		})
	}
	add("mlkit.train_s", "s", "mlkit", "setup_s; "+movesWrite, func() (float64, error) {
		X, y, classes, err := trainingSet(feats, sample)
		if err != nil {
			return 0, err
		}
		var xs []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := mlkit.TrainForest(X, y, classes, mlkit.ForestConfig{Trees: 40, MaxDepth: 24, MinLeaf: 1, Seed: 102}); err != nil {
				return 0, err
			}
			xs = append(xs, time.Since(t0).Seconds())
		}
		return median(xs), nil
	})
	out = append(out, LayerMetric{"mlkit.nodes", "count", "mlkit", "latency_p50_ms @ estimate-small, server_cpu_us_per_item @ stream-bulk", float64(len(ff.Feats))})
	return out, firstErr
}

// coreFor builds a service core serving m.
func coreFor(m *core.Model, opts ...pme.CoreOption) (*pme.Core, error) {
	reg := pme.NewRegistry()
	if _, err := reg.Publish(m); err != nil {
		return nil, err
	}
	return pme.NewCore(reg, nil, opts...), nil
}

// estimateBatchUS times Core.EstimateBatch on 16-item batches from
// `callers` goroutines at once and returns the median call in µs.
func estimateBatchUS(ctx context.Context, c *pme.Core, in *Inputs, callers int) (float64, error) {
	var mu sync.Mutex
	var all []float64
	var firstErr error
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var xs []float64
			deadline := time.Now().Add(layerBudget)
			for i := g; time.Now().Before(deadline); i += callers {
				t0 := time.Now()
				_, err := c.EstimateBatch(ctx, in.Batches[i%len(in.Batches)])
				xs = append(xs, float64(time.Since(t0))/1e3)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			all = append(all, xs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return median(all), firstErr
}

// retrainSample is the first retrainCount trainable contributions: what
// one retrain at -retrain-count 1000 learns from.
func retrainSample(contribs []pme.Contribution) []pme.Contribution {
	var out []pme.Contribution
	for i := range contribs {
		if contribs[i].Trainable() {
			out = append(out, contribs[i])
			if len(out) == retrainCount {
				break
			}
		}
	}
	return out
}

// trainingSet encodes a retrain sample as pme.Retrainer does.
func trainingSet(feats *core.SFeatures, sample []pme.Contribution) ([][]float64, []int, int, error) {
	X := make([][]float64, len(sample))
	prices := make([]float64, len(sample))
	for i := range sample {
		c := &sample[i]
		X[i] = feats.FromStrings(core.StringContext{
			ADX: c.ADX, City: c.City, OS: c.OS, Device: c.Device,
			Origin: c.Origin, Slot: c.Slot, IAB: c.IAB,
			Hour: c.Observed.Hour(), Weekday: int(c.Observed.Weekday()),
		})
		prices[i] = c.PriceCPM
	}
	binner, err := mlkit.NewBinner(prices, 4)
	if err != nil {
		return nil, nil, 0, err
	}
	return X, binner.Labels(prices), binner.Classes(), nil
}

func stringContext(it *pme.EstimateItem) core.StringContext {
	hour, weekday := it.Hour, it.Weekday
	if !it.Observed.IsZero() {
		hour, weekday = it.Observed.Hour(), int(it.Observed.Weekday())
	}
	return core.StringContext{
		ADX: it.ADX, City: it.City, OS: it.OS, Device: it.Device,
		Origin: it.Origin, Slot: it.Slot, IAB: it.IAB,
		Hour: hour, Weekday: weekday,
	}
}

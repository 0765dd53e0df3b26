package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"yourandvalue/internal/geoip"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
	"yourandvalue/internal/scenario"
	"yourandvalue/internal/stream"
)

const (
	// traceScale is the first trace scale tried. Seeds differ widely in
	// how many encrypted items a trace yields (3,800 to 5,300 at this
	// scale), so BuildInputs doubles the scale until the trace's first
	// streamItems items are all distinct.
	traceScale = 0.25
	// batchItems is the thin-client /v2/estimate batch size.
	batchItems = 16
	// streamItems is the size of the NDJSON stream stream-bulk sends.
	streamItems = 4096
)

// Inputs is everything a run sends, built from the seed before timing
// starts: the server only ever receives these bodies.
type Inputs struct {
	Seed int64

	// Batches[i] is the item list behind EstimateBodies[i].
	Batches        [][]pme.EstimateItem
	EstimateBodies [][]byte

	// StreamItems are distinct; StreamBody is their NDJSON encoding.
	StreamItems []pme.EstimateItem
	StreamBody  []byte

	// Contribs are the trace's price contributions. No workload sends
	// them; the traced run times the pool and retrain layers on them.
	Contribs []pme.Contribution
}

// BuildInputs generates the baseline scenario trace for seed and turns
// it, through stream.Convert, into request bodies.
func BuildInputs(seed int64) (*Inputs, error) {
	in := &Inputs{Seed: seed}
	var items []pme.EstimateItem
	for scale := traceScale; in.StreamItems == nil; scale *= 2 {
		if scale > 4 {
			return nil, fmt.Errorf("seed %d: no trace scale up to 4 yields %d distinct encrypted items", seed, streamItems)
		}
		var err error
		if in.Contribs, items, err = convertTrace(seed, scale); err != nil {
			return nil, err
		}
		in.StreamItems = distinctPrefix(items, streamItems)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range in.StreamItems {
		if err := enc.Encode(&in.StreamItems[i]); err != nil {
			return nil, err
		}
	}
	in.StreamBody = buf.Bytes()

	for i := 0; i+batchItems <= len(items); i += batchItems {
		b := items[i : i+batchItems]
		body, err := json.Marshal(pmeserver.EstimateRequest{Items: b})
		if err != nil {
			return nil, err
		}
		in.Batches = append(in.Batches, b)
		in.EstimateBodies = append(in.EstimateBodies, body)
	}
	return in, nil
}

// convertTrace generates the baseline trace at scale and converts its
// price notifications into contributions and estimate items.
func convertTrace(seed int64, scale float64) ([]pme.Contribution, []pme.EstimateItem, error) {
	sc, err := scenario.Get(scenario.Baseline)
	if err != nil {
		return nil, nil, err
	}
	cfg := sc.TraceConfig(seed, scale)
	cfg.Workers = runtime.GOMAXPROCS(0) // output is identical at any worker count
	src := stream.NewGeneratorSource(cfg)
	events := make(chan stream.Event, 1024)
	errc := make(chan error, 1)
	go func() {
		errc <- src.Run(context.Background(), events)
		close(events)
	}()
	var evs []stream.Event
	for ev := range events {
		evs = append(evs, ev)
	}
	if err := <-errc; err != nil {
		return nil, nil, fmt.Errorf("generating trace: %w", err)
	}
	contribs, items := stream.Convert(evs, geoip.Default(), nurl.Default())
	return contribs, items, nil
}

// distinctPrefix returns the first n items, or nil if there are fewer
// or any repeats: a repeated item would let a cache inside the server
// serve the stream.
func distinctPrefix(items []pme.EstimateItem, n int) []pme.EstimateItem {
	if len(items) < n {
		return nil
	}
	seen := make(map[pme.EstimateItem]bool, n)
	for _, it := range items[:n] {
		if seen[it] {
			return nil
		}
		seen[it] = true
	}
	return items[:n]
}

// Arrival is one open-loop estimate request: when it is due, relative
// to the start of the phase, and which batch it sends.
type Arrival struct {
	At    time.Duration
	Index int
}

// Schedule lays out perS requests a second over d at fixed spacing,
// with a seeded phase, each sending one of count batches picked at
// random.
func Schedule(seed int64, d time.Duration, perS float64, count int) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	gap := time.Duration(float64(time.Second) / perS)
	var out []Arrival
	for at := time.Duration(rng.Int63n(int64(gap))); at < d; at += gap {
		out = append(out, Arrival{At: at, Index: rng.Intn(count)})
	}
	return out
}

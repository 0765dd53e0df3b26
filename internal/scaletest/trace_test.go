package scaletest

import (
	"bytes"
	"context"
	"testing"
	"time"

	"yourandvalue/internal/obs/trace"
	"yourandvalue/internal/pmeserver"
)

// TestTracePropagationEndToEnd: a shared tracer between the client
// fleet and a self-hosted server must produce one export where
// server-side spans carry client parents — same trace ID across the
// HTTP boundary, server span parented on the client's request span.
func TestTracePropagationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("self-host run in -short")
	}
	tracer := trace.NewTracer(0)
	host, err := StartSelfHost(7, 1000, pmeserver.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = Run(ctx, Config{
		BaseURL:  host.BaseURL,
		Strategy: "model-poll",
		Clients:  2,
		Seed:     7,
		MaxOps:   20,
		Tracer:   tracer,
		SLO:      &SLO{MaxErrorRate: -1},
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tracer.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := trace.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Index client-side request spans by ID; a server span must parent
	// onto one of them within the same trace.
	clientSpans := make(map[trace.SpanID]trace.Span)
	for _, s := range spans {
		if s.Name == "model_poll" {
			clientSpans[s.ID] = s
		}
	}
	if len(clientSpans) == 0 {
		t.Fatal("no client model_poll spans recorded")
	}
	linked := 0
	for _, s := range spans {
		if s.Name != "server.v2.model" && s.Name != "server.v2.version" {
			continue
		}
		parent, ok := clientSpans[s.Parent]
		if !ok {
			continue
		}
		if s.Trace != parent.Trace {
			t.Fatalf("server span %v carries trace %v, client parent has %v", s.ID, s.Trace, parent.Trace)
		}
		linked++
	}
	if linked == 0 {
		t.Fatalf("no server span parented on a client span; %d spans total", len(spans))
	}
}

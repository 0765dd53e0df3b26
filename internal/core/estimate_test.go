package core

import (
	"math"
	"testing"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/nurl"
)

// TestEstimateRowsIntoMatchesEstimateCPM: the batch kernel must give,
// row for row and bit for bit, what EstimateCPM gives one vector at a
// time — on a trained model and on its flat-only compact decode, for
// empty, single, odd, chunk-sized and over-chunk batches, without
// writing past dst[:n].
func TestEstimateRowsIntoMatchesEstimateCPM(t *testing.T) {
	f := pipeline(t)
	blob, err := f.model.EncodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	compact, err := DecodeCompactModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	const maxN = 300
	if len(f.a1.Records) < maxN {
		t.Fatalf("fixture has %d records, need %d", len(f.a1.Records), maxN)
	}
	for name, m := range map[string]*Model{"trained": f.model, "compact": compact} {
		rows := make([][]float64, maxN)
		for i := range rows {
			rows[i] = m.Features.FromRecord(f.a1.Records[i])
		}
		cls := make([]int, maxN)
		for _, n := range []int{0, 1, 17, 256, 300} {
			dst := make([]float64, n+1)
			dst[n] = math.NaN()
			m.EstimateRowsInto(dst, cls, rows[:n])
			for i := 0; i < n; i++ {
				if want := m.EstimateCPM(rows[i]); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("%s n=%d row %d: kernel %v, EstimateCPM %v", name, n, i, dst[i], want)
				}
			}
			if !math.IsNaN(dst[n]) {
				t.Fatalf("%s n=%d: kernel wrote past dst[:n]", name, n)
			}
		}
	}
}

// TestBatchEstimateMatchesPerImpression: every user's batched
// EncryptedCPM must equal, bit for bit, the stream-order sum of
// per-impression EstimateCPM — including a user whose encrypted
// impressions span several estimateChunk flushes — at one worker and
// at several.
func TestBatchEstimateMatchesPerImpression(t *testing.T) {
	f := pipeline(t)
	// No fixture user reaches estimateChunk encrypted impressions, so a
	// synthetic heavy user replays every encrypted impression once more.
	res := *f.res
	res.Impressions = append([]analyzer.Impression(nil), f.res.Impressions...)
	heavy := -1
	for _, imp := range f.res.Impressions {
		if imp.Notification.Kind == nurl.Encrypted {
			imp.UserID = heavy
			res.Impressions = append(res.Impressions, imp)
		}
	}
	want := make(map[int]float64)
	count := make(map[int]int)
	for _, imp := range res.Impressions {
		if imp.Notification.Kind == nurl.Encrypted {
			want[imp.UserID] += f.model.EstimateCPM(f.model.Features.FromImpression(imp))
			count[imp.UserID]++
		}
	}
	if count[heavy] <= estimateChunk {
		t.Fatalf("heavy user has %d encrypted impressions, need more than %d", count[heavy], estimateChunk)
	}
	for _, workers := range []int{1, 3} {
		costs, err := BatchEstimateContext(t.Context(), &res, f.model, workers)
		if err != nil {
			t.Fatal(err)
		}
		for id, uc := range costs {
			if uc.EncryptedCount != count[id] {
				t.Fatalf("workers=%d user %d: %d encrypted, want %d", workers, id, uc.EncryptedCount, count[id])
			}
			if math.Float64bits(uc.EncryptedCPM) != math.Float64bits(want[id]) {
				t.Fatalf("workers=%d user %d: batched %v, per-impression sum %v", workers, id, uc.EncryptedCPM, want[id])
			}
		}
	}
}

package main

import (
	"context"
	"fmt"
	"math"

	"yourandvalue/internal/core"
	"yourandvalue/internal/pme"
)

// Verifier checks served estimates bit for bit against an in-process
// pme.Core running the same model version, decoded from /v2/model.
type Verifier struct {
	cores    map[int]*pme.Core
	expected map[[2]int][]float64 // (version, batch) → estimates
}

func NewVerifier() *Verifier {
	return &Verifier{cores: map[int]*pme.Core{}, expected: map[[2]int][]float64{}}
}

// Add registers the reference for m's version.
func (v *Verifier) Add(m *core.Model) error {
	reg := pme.NewRegistry()
	// The first publish into an empty registry keeps the model's own
	// version, so the reference answers under the served version number.
	snap, err := reg.Publish(m)
	if err != nil {
		return err
	}
	if snap.Version != m.Version {
		return fmt.Errorf("reference published as version %d, model says %d", snap.Version, m.Version)
	}
	v.cores[m.Version] = pme.NewCore(reg, nil)
	return nil
}

// Versions reports how many model versions have a reference.
func (v *Verifier) Versions() int { return len(v.cores) }

// CheckResult tallies one pass of the output check.
type CheckResult struct {
	Checked      int // replies compared
	Mismatched   int // replies with at least one estimate off by any bit
	Unverifiable int // replies at a version with no reference
}

// Check compares every reply against the reference estimates of its
// items (key identifies the item list for caching: a batch index, or
// -1 for the stream).
func (v *Verifier) Check(replies []EstReply, items func(key int) []pme.EstimateItem) (CheckResult, error) {
	var res CheckResult
	for _, r := range replies {
		want, ok, err := v.want(r.Version, r.Batch, items)
		if err != nil {
			return res, err
		}
		if !ok {
			res.Unverifiable++
			continue
		}
		res.Checked++
		if !sameBits(want, r.CPM) {
			res.Mismatched++
		}
	}
	return res, nil
}

func (v *Verifier) want(version, key int, items func(int) []pme.EstimateItem) ([]float64, bool, error) {
	if w, ok := v.expected[[2]int{version, key}]; ok {
		return w, true, nil
	}
	c, ok := v.cores[version]
	if !ok {
		return nil, false, nil
	}
	res, err := c.EstimateBatch(context.Background(), items(key))
	if err != nil {
		return nil, false, fmt.Errorf("reference estimate: %w", err)
	}
	v.expected[[2]int{version, key}] = res.EstimatesCPM
	return res.EstimatesCPM, true, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

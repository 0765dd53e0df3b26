package scaletest

import (
	"fmt"
	"sort"
	"time"
)

// Profile shapes one synthetic client's operation cycle: which requests
// it issues and how often, in cycles. Each cycle consumes one event
// batch from the scenario stream (when any op needs events) and issues
// the ops whose cadence divides the cycle number, so one client loop
// serves every named strategy.
type Profile struct {
	// Name is the strategy name ("estimate-heavy", ...).
	Name string
	// Description is the one-line -list text.
	Description string
	// PollEvery issues a conditional GET /v2/model every n cycles
	// (0 = never). 1 makes the client a dedicated ETag poller.
	PollEvery int
	// ContributeEvery posts the cycle's contributions every n cycles
	// (0 = never).
	ContributeEvery int
	// EstimateEvery posts the cycle's encrypted items to the batch
	// POST /v2/estimate every n cycles (0 = never).
	EstimateEvery int
	// StreamEvery drives the cycle's encrypted items through the NDJSON
	// POST /v2/estimate/stream every n cycles (0 = never).
	StreamEvery int
	// EstimateBurst > 1 splits each estimate cycle's items across this
	// many concurrent POST /v2/estimate calls instead of one — the
	// arrival pattern the server's cross-request inference batcher
	// coalesces back into shared forest walks.
	EstimateBurst int
	// Churn bounds client lifetimes: a client "leaves" after a
	// per-generation random number of cycles (uniform in
	// [0, ChurnMaxLifetime]) and a fresh client joins in its place —
	// fresh identity, empty ETag cache. Zero-length lifetimes are legal:
	// that client joins and leaves without completing an op.
	Churn bool
	// DefaultSLO is the gate applied when the caller sets none
	// explicitly. Zero fields are unchecked.
	DefaultSLO SLO
}

// NeedsEvents reports whether the profile consumes the scenario stream
// at all (a pure model-poll fleet does not).
func (p Profile) NeedsEvents() bool {
	return p.ContributeEvery > 0 || p.EstimateEvery > 0 || p.StreamEvery > 0
}

// profiles is the named strategy registry. The cadences are relative
// pressure mixes, not absolute rates — wall-clock rates come from how
// fast the server answers.
var profiles = map[string]Profile{
	"estimate-heavy": {
		Name:            "estimate-heavy",
		Description:     "batch POST /v2/estimate every cycle; occasional contribute and model poll",
		PollEvery:       64,
		ContributeEvery: 8,
		EstimateEvery:   1,
		DefaultSLO:      SLO{MaxErrorRate: 0},
	},
	"contribute-heavy": {
		Name:            "contribute-heavy",
		Description:     "POST /v2/contribute every cycle; occasional model poll (write-dominated fleet)",
		PollEvery:       64,
		ContributeEvery: 1,
		DefaultSLO:      SLO{MaxErrorRate: 0},
	},
	"stream-heavy": {
		Name:            "stream-heavy",
		Description:     "NDJSON POST /v2/estimate/stream every cycle; occasional contribute (bulk path)",
		PollEvery:       64,
		ContributeEvery: 4,
		StreamEvery:     1,
		DefaultSLO:      SLO{MaxErrorRate: 0},
	},
	"estimate-burst": {
		Name:          "estimate-burst",
		Description:   "4 concurrent POST /v2/estimate sub-batches every cycle — micro-batcher coalescing pressure",
		PollEvery:     64,
		EstimateEvery: 1,
		EstimateBurst: 4,
		DefaultSLO:    SLO{MaxErrorRate: 0},
	},
	"model-poll": {
		Name:        "model-poll",
		Description: "conditional GET /v2/model every cycle — ETag churn around retrain-driven hot-swaps",
		PollEvery:   1,
		DefaultSLO:  SLO{MaxErrorRate: 0},
	},
	"mixed": {
		Name:            "mixed",
		Description:     "every endpoint plus client churn (clients join/leave mid-run)",
		PollEvery:       8,
		ContributeEvery: 1,
		EstimateEvery:   2,
		StreamEvery:     4,
		Churn:           true,
		DefaultSLO:      SLO{MaxErrorRate: 0},
	},
}

// Strategies lists the registered workload strategy names, sorted.
func Strategies() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ProfileFor resolves a strategy name.
func ProfileFor(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("scaletest: unknown strategy %q (have: %v)", name, Strategies())
	}
	return p, nil
}

// DescribeStrategies renders the -list text.
func DescribeStrategies() string {
	out := ""
	for _, n := range Strategies() {
		out += fmt.Sprintf("  %-17s %s\n", n, profiles[n].Description)
	}
	return out
}

// defaultChurnMaxLifetime is the mixed strategy's lifetime bound in
// cycles when the caller does not set one.
const defaultChurnMaxLifetime = 24

// defaultStepDuration paces one ramp step when the caller sets none.
const defaultStepDuration = 5 * time.Second

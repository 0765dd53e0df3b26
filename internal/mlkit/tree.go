// Package mlkit is the machine-learning substrate of the Price Modeling
// Engine: CART decision trees, random forests with out-of-bag error and
// impurity-based feature importance (the §5.1 dimensionality-reduction
// tool and the §5.4 encrypted-price classifier), entropy-balanced price
// discretization, variance/correlation feature filters, k-fold cross
// validation, and the evaluation metrics the paper reports (TP/FP rate,
// precision, recall, weighted one-vs-rest AUC-ROC).
//
// Everything is stdlib-only and deterministic under explicit seeds.
package mlkit

import (
	"errors"
	"math"
	"slices"
	"sort"

	"yourandvalue/internal/stats"
)

// TreeConfig controls CART induction.
type TreeConfig struct {
	// MaxDepth limits tree height; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of features examined per split; 0 means
	// all (single trees) — forests pass √F.
	MaxFeatures int
	// MaxThresholds caps candidate thresholds per feature via quantile
	// subsampling (default 32), bounding induction cost on large data.
	MaxThresholds int
	// Seed drives feature subsampling.
	Seed int64
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MaxThresholds <= 0 {
		c.MaxThresholds = 32
	}
	return c
}

// Node is one decision-tree node. Leaves carry the class-vote histogram
// so probability estimates and forest vote aggregation work; internal
// nodes split on Feature ≤ Threshold (left) vs > (right). The structure
// is JSON-serializable — it is the model format the PME ships to
// YourAdValue clients (§3.2: "apply the model M (in the form of a
// decision tree) locally on their device").
type Node struct {
	Feature   int     `json:"f,omitempty"`
	Threshold float64 `json:"t,omitempty"`
	Left      *Node   `json:"l,omitempty"`
	Right     *Node   `json:"r,omitempty"`
	Leaf      bool    `json:"leaf,omitempty"`
	Counts    []int   `json:"c,omitempty"` // per-class sample counts at leaf
}

// Tree is a trained CART classifier.
type Tree struct {
	Root    *Node `json:"root"`
	Classes int   `json:"classes"`
	// importance accumulates per-feature impurity decrease during
	// induction (unnormalized).
	importance []float64
	flat       flatOnce
}

// ErrBadTrainingData reports shape problems, out-of-range labels, or a
// NaN feature value (rank codes cannot order NaN).
var ErrBadTrainingData = errors.New("mlkit: invalid training data")

// TrainTree induces a CART classifier on X (n×d) with integer class
// labels y in [0, classes).
func TrainTree(X [][]float64, y []int, classes int, cfg TreeConfig) (*Tree, error) {
	if len(X) != len(y) || !validLabels(y, classes) {
		return nil, ErrBadTrainingData
	}
	cols, err := newColumns(X)
	if err != nil {
		return nil, err
	}
	idx := make([]int32, len(X))
	for i := range idx {
		idx[i] = int32(i)
	}
	return newTreeBuilder(cols, y, classes, len(idx)).grow(idx, cfg), nil
}

func validLabels(y []int, classes int) bool {
	if classes < 2 {
		return false
	}
	for _, c := range y {
		if c < 0 || c >= classes {
			return false
		}
	}
	return true
}

// columns is the column-major, rank-coded form of a training matrix:
// codes[f][i] is the rank of X[i][f] among feature f's distinct values,
// which values[f] lists in increasing order. It is built once per
// training call and shared read-only by every tree of a forest, so a
// bootstrap sample is just a slice of row indices and a split search
// reads one contiguous column instead of chasing row pointers.
type columns struct {
	d      int
	codes  [][]int32
	values [][]float64
}

// newColumns rank-codes X, rejecting empty, ragged or NaN input.
func newColumns(X [][]float64) (*columns, error) {
	if len(X) == 0 || len(X) > math.MaxInt32 {
		return nil, ErrBadTrainingData
	}
	n, d := len(X), len(X[0])
	for _, row := range X {
		if len(row) != d {
			return nil, ErrBadTrainingData
		}
	}
	c := &columns{d: d, codes: make([][]int32, d), values: make([][]float64, d)}
	slab := make([]int32, n*d)
	sorted := make([]float64, n)
	for f := 0; f < d; f++ {
		for i, row := range X {
			v := row[f]
			if math.IsNaN(v) {
				return nil, ErrBadTrainingData
			}
			sorted[i] = v
		}
		sort.Float64s(sorted)
		distinct := 1
		for i := 1; i < n; i++ {
			if sorted[i] != sorted[distinct-1] {
				sorted[distinct] = sorted[i]
				distinct++
			}
		}
		vals := append([]float64(nil), sorted[:distinct]...)
		codes := slab[f*n : (f+1)*n : (f+1)*n]
		for i, row := range X {
			codes[i] = int32(sort.SearchFloat64s(vals, row[f]))
		}
		c.codes[f], c.values[f] = codes, vals
	}
	return c, nil
}

// treeBuilder grows trees over shared columns. It owns all split-search
// scratch, sized once for the largest sample it will see, so a forest
// worker reuses one builder for every tree it grows.
type treeBuilder struct {
	cols    *columns
	y       []int
	classes int
	cfg     TreeConfig
	rng     *stats.Rand

	importance []float64
	perm       []int     // feature order, refilled by PermInto
	hist       []int     // per-class counts of each distinct code present
	present    []int32   // the node's distinct codes, increasing
	vals       []float64 // their values
	mids       []float64 // candidate thresholds
	keys       []int     // sort-path code·classes+label keys
	left       []int
	right      []int
}

func newTreeBuilder(cols *columns, y []int, classes, maxRows int) *treeBuilder {
	return &treeBuilder{
		cols: cols, y: y, classes: classes,
		perm:    make([]int, cols.d),
		hist:    make([]int, maxRows*classes),
		present: make([]int32, maxRows),
		vals:    make([]float64, maxRows),
		mids:    make([]float64, 0, maxRows),
		keys:    make([]int, 0, maxRows),
		left:    make([]int, classes),
		right:   make([]int, classes),
	}
}

// grow induces one tree on the rows idx lists (duplicates allowed, as in
// a bootstrap sample). idx is reordered in place.
func (b *treeBuilder) grow(idx []int32, cfg TreeConfig) *Tree {
	b.cfg = cfg.withDefaults()
	b.rng = stats.NewRand(b.cfg.Seed)
	b.importance = make([]float64, b.cols.d)
	root := b.build(idx, 0)
	return &Tree{Root: root, Classes: b.classes, importance: b.importance}
}

func (b *treeBuilder) counts(idx []int32) []int {
	c := make([]int, b.classes)
	for _, i := range idx {
		c[b.y[i]]++
	}
	return c
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

func pure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func (b *treeBuilder) build(idx []int32, depth int) *Node {
	counts := b.counts(idx)
	if pure(counts) || len(idx) < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return &Node{Leaf: true, Counts: counts}
	}
	feat, thr, cut, gain, ok := b.bestSplit(idx, counts)
	if !ok {
		return &Node{Leaf: true, Counts: counts}
	}
	// Partition in place: rows whose code is ≤ cut are exactly the rows
	// with X[i][feat] ≤ thr.
	col := b.cols.codes[feat]
	nLeft := 0
	for j, i := range idx {
		if col[i] <= cut {
			idx[nLeft], idx[j] = i, idx[nLeft]
			nLeft++
		}
	}
	left, right := idx[:nLeft], idx[nLeft:]
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return &Node{Leaf: true, Counts: counts}
	}
	b.importance[feat] += gain * float64(len(idx))
	return &Node{
		Feature:   feat,
		Threshold: thr,
		Left:      b.build(left, depth+1),
		Right:     b.build(right, depth+1),
	}
}

// bestSplit searches a random feature subset for the threshold maximizing
// Gini gain. Per feature it builds the node's class histogram over the
// distinct values present, takes the midpoints between neighbours
// (quantile-subsampled to MaxThresholds) as candidates, and sweeps them
// once in increasing order, accumulating the left counts for every
// x ≤ t. cut is the largest code on the left of the winning threshold.
func (b *treeBuilder) bestSplit(idx []int32, parentCounts []int) (feat int, thr float64, cut int32, gain float64, ok bool) {
	d := b.cols.d
	nFeat := b.cfg.MaxFeatures
	if nFeat <= 0 || nFeat > d {
		nFeat = d
	}
	b.rng.PermInto(b.perm)
	featOrder := b.perm[:nFeat]

	C := b.classes
	parentGini := gini(parentCounts, len(idx))
	bestGain := 1e-12
	found := false

	for _, f := range featOrder {
		m := b.classHistogram(f, idx)
		if m < 2 {
			continue // constant feature on this node
		}
		vals := b.vals[:m]
		for k, code := range b.present[:m] {
			vals[k] = b.cols.values[f][code]
		}
		b.mids = quantileSubsample(distinctMidpoints(b.mids[:0], vals), b.cfg.MaxThresholds)
		clear(b.left)
		nLeft, p := 0, 0
		// The candidates increase (a NaN midpoint of -Inf and +Inf can
		// only be the sole one, and no value is ≤ it), so one pass over
		// the histogram serves them all.
		for _, t := range b.mids {
			for ; p < m && vals[p] <= t; p++ {
				for c, v := range b.hist[p*C : (p+1)*C] {
					b.left[c] += v
					nLeft += v
				}
			}
			nRight := len(idx) - nLeft
			if nLeft == 0 || nRight == 0 {
				continue
			}
			for c := range b.right {
				b.right[c] = parentCounts[c] - b.left[c]
			}
			g := parentGini -
				(float64(nLeft)*gini(b.left, nLeft)+
					float64(nRight)*gini(b.right, nRight))/float64(len(idx))
			if g > bestGain {
				bestGain, feat, thr, cut, found = g, f, t, b.present[p-1], true
			}
		}
	}
	return feat, thr, cut, bestGain, found
}

// classHistogram fills b.present[:m] with the distinct codes feature f
// takes on the node's rows, in increasing order, and b.hist[k*classes:]
// with the per-class row counts of present[k]; it returns m. A code
// range no wider than the node is counted into a dense histogram and
// compacted; a wider one (a continuous feature on a small node) sorts
// code·classes+label keys instead, so the cost stays O(node) either way.
func (b *treeBuilder) classHistogram(f int, idx []int32) int {
	C := b.classes
	col := b.cols.codes[f]
	// A feature with no more distinct values than the node has rows (the
	// one-hot S-features) is counted over its whole code range with no
	// min/max scan; otherwise the node's own range is found first.
	lo, hi := int32(0), int32(len(b.cols.values[f])-1)
	if int(hi) >= len(idx) {
		lo, hi = col[idx[0]], col[idx[0]]
		for _, i := range idx {
			lo, hi = min(lo, col[i]), max(hi, col[i])
		}
		if lo == hi {
			return 1
		}
	}
	if width := int(hi-lo) + 1; width <= len(idx) {
		h := b.hist[:width*C]
		clear(h)
		for _, i := range idx {
			h[int(col[i]-lo)*C+b.y[i]]++
		}
		m := 0
		for k := 0; k < width; k++ {
			row := h[k*C : (k+1)*C]
			for _, v := range row {
				if v != 0 {
					copy(h[m*C:], row)
					b.present[m] = lo + int32(k)
					m++
					break
				}
			}
		}
		return m
	}
	keys := b.keys[:0]
	for _, i := range idx {
		keys = append(keys, int(col[i]-lo)*C+b.y[i])
	}
	slices.Sort(keys)
	b.keys = keys
	m, prev := 0, -1
	for _, key := range keys {
		if k := key / C; k != prev {
			clear(b.hist[m*C : (m+1)*C])
			b.present[m] = lo + int32(k)
			m, prev = m+1, k
		}
		b.hist[(m-1)*C+key%C]++
	}
	return m
}

// candidateThresholds returns midpoints between distinct sorted values,
// subsampled to at most k via quantiles.
func candidateThresholds(sorted []float64, k int) []float64 {
	return quantileSubsample(distinctMidpoints(nil, sorted), k)
}

// distinctMidpoints appends to dst the midpoint between each pair of
// neighbouring distinct values of sorted.
func distinctMidpoints(dst, sorted []float64) []float64 {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			dst = append(dst, (sorted[i]+sorted[i-1])/2)
		}
	}
	return dst
}

// quantileSubsample keeps at most k of the increasing candidates mids,
// evenly spaced by rank from the first (and, for k > 1, to the last).
// It works in place: the result aliases mids.
func quantileSubsample(mids []float64, k int) []float64 {
	if len(mids) <= k {
		return mids
	}
	if k == 1 {
		return mids[:1]
	}
	for i := 0; i < k; i++ {
		mids[i] = mids[i*(len(mids)-1)/(k-1)]
	}
	return mids[:k]
}

// PredictCounts returns the training-sample class histogram at the leaf x
// falls into.
func (t *Tree) PredictCounts(x []float64) []int {
	n := t.Root
	for n != nil && !n.Leaf {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	if n == nil {
		return make([]int, t.Classes)
	}
	return n.Counts
}

// Predict returns the majority class for x (ties break to the lower
// class index).
func (t *Tree) Predict(x []float64) int {
	counts := t.PredictCounts(x)
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// PredictProba returns leaf-frequency class probabilities for x.
func (t *Tree) PredictProba(x []float64) []float64 {
	counts := t.PredictCounts(x)
	total := 0
	for _, c := range counts {
		total += c
	}
	p := make([]float64, len(counts))
	if total == 0 {
		return p
	}
	for c, n := range counts {
		p[c] = float64(n) / float64(total)
	}
	return p
}

// Depth returns the tree height (a single leaf has depth 0).
func (t *Tree) Depth() int { return depthOf(t.Root) }

func depthOf(n *Node) int {
	if n == nil || n.Leaf {
		return 0
	}
	return 1 + max(depthOf(n.Left), depthOf(n.Right))
}

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// Importance returns the tree's per-feature impurity-decrease scores,
// normalized to sum to 1 (all-zero if no splits).
func (t *Tree) Importance() []float64 {
	return normalizeImportance(t.importance)
}

func normalizeImportance(raw []float64) []float64 {
	out := make([]float64, len(raw))
	total := 0.0
	for _, v := range raw {
		total += v
	}
	if total <= 0 {
		return out
	}
	for i, v := range raw {
		out[i] = v / total
	}
	return out
}

// LogTransform returns ln(1+x) per element, the §5.1 normalization applied
// to charge prices before clustering ("we applied a log transformation on
// the extracted cleartext prices").
func LogTransform(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Log1p(x)
	}
	return out
}

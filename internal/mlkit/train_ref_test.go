package mlkit

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"yourandvalue/internal/stats"
)

// The reference CART below is the row-major induction the rank-coded
// builder replaced: per node and feature it gathers X[i][f], sorts it,
// and rescans the node for every candidate threshold. It is kept only
// here, as the oracle the production builder must match bit for bit.

type refTreeBuilder struct {
	X          [][]float64
	y          []int
	classes    int
	cfg        TreeConfig
	rng        *stats.Rand
	importance []float64
}

func refTrainTree(X [][]float64, y []int, classes int, cfg TreeConfig) *Tree {
	cfg = cfg.withDefaults()
	b := &refTreeBuilder{
		X: X, y: y, classes: classes, cfg: cfg,
		rng:        stats.NewRand(cfg.Seed),
		importance: make([]float64, len(X[0])),
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	root := b.build(idx, 0)
	return &Tree{Root: root, Classes: classes, importance: b.importance}
}

func (b *refTreeBuilder) build(idx []int, depth int) *Node {
	counts := make([]int, b.classes)
	for _, i := range idx {
		counts[b.y[i]]++
	}
	if pure(counts) || len(idx) < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return &Node{Leaf: true, Counts: counts}
	}
	feat, thr, gain, ok := b.bestSplit(idx, counts)
	if !ok {
		return &Node{Leaf: true, Counts: counts}
	}
	var left, right []int
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
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

func (b *refTreeBuilder) bestSplit(idx []int, parentCounts []int) (feat int, thr float64, gain float64, ok bool) {
	d := len(b.X[0])
	nFeat := b.cfg.MaxFeatures
	if nFeat <= 0 || nFeat > d {
		nFeat = d
	}
	featOrder := b.rng.Perm(d)[:nFeat]

	parentGini := gini(parentCounts, len(idx))
	bestGain := 1e-12
	found := false

	vals := make([]float64, 0, len(idx))
	for _, f := range featOrder {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, b.X[i][f])
		}
		sort.Float64s(vals)
		if vals[0] == vals[len(vals)-1] {
			continue
		}
		for _, t := range refCandidateThresholds(vals, b.cfg.MaxThresholds) {
			leftCounts := make([]int, b.classes)
			nLeft := 0
			for _, i := range idx {
				if b.X[i][f] <= t {
					leftCounts[b.y[i]]++
					nLeft++
				}
			}
			nRight := len(idx) - nLeft
			if nLeft == 0 || nRight == 0 {
				continue
			}
			rightCounts := make([]int, b.classes)
			for c := range rightCounts {
				rightCounts[c] = parentCounts[c] - leftCounts[c]
			}
			g := parentGini -
				(float64(nLeft)*gini(leftCounts, nLeft)+
					float64(nRight)*gini(rightCounts, nRight))/float64(len(idx))
			if g > bestGain {
				bestGain, feat, thr, found = g, f, t, true
			}
		}
	}
	return feat, thr, bestGain, found
}

func refCandidateThresholds(sorted []float64, k int) []float64 {
	var mids []float64
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			mids = append(mids, (sorted[i]+sorted[i-1])/2)
		}
	}
	if len(mids) <= k {
		return mids
	}
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, mids[i*(len(mids)-1)/(k-1)])
	}
	return out
}

// refTrainForest is the sequential forest loop: bootstrap, then grow,
// one tree at a time, with OOB votes through the pointer walk.
func refTrainForest(X [][]float64, y []int, classes int, cfg ForestConfig) *Forest {
	d := len(X[0])
	cfg = cfg.withDefaults(d)
	rng := stats.NewRand(cfg.Seed)
	f := &Forest{Classes: classes, importance: make([]float64, d)}
	n := len(X)
	sampleX := make([][]float64, n)
	sampleY := make([]int, n)
	bags := make([][]bool, cfg.Trees)
	for t := 0; t < cfg.Trees; t++ {
		bags[t] = make([]bool, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			sampleX[i] = X[j]
			sampleY[i] = y[j]
			bags[t][j] = true
		}
		tree := refTrainTree(sampleX, sampleY, classes, TreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			MaxFeatures: cfg.MaxFeatures,
			Seed:        rng.Int63(),
		})
		f.Trees = append(f.Trees, tree)
		for i, v := range tree.importance {
			f.importance[i] += v
		}
	}
	wrong, counted := 0, 0
	for i := 0; i < n; i++ {
		votes := make([]int, classes)
		total := 0
		for t, tree := range f.Trees {
			if !bags[t][i] {
				votes[tree.Predict(X[i])]++
				total++
			}
		}
		if total == 0 {
			continue
		}
		best, bestN := 0, -1
		for c, v := range votes {
			if v > bestN {
				best, bestN = c, v
			}
		}
		counted++
		if best != y[i] {
			wrong++
		}
	}
	if counted > 0 {
		f.oobError = float64(wrong) / float64(counted)
	}
	return f
}

// diffNodes reports the first structural or bitwise difference between
// two trees, or "" when they are identical.
func diffNodes(path string, a, b *Node) string {
	switch {
	case a == nil || b == nil:
		if a != b {
			return path + ": nil mismatch"
		}
		return ""
	case a.Leaf != b.Leaf:
		return fmt.Sprintf("%s: leaf %v vs %v", path, a.Leaf, b.Leaf)
	case a.Leaf:
		if fmt.Sprint(a.Counts) != fmt.Sprint(b.Counts) {
			return fmt.Sprintf("%s: counts %v vs %v", path, a.Counts, b.Counts)
		}
		return ""
	case a.Feature != b.Feature || math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold):
		return fmt.Sprintf("%s: split x%d ≤ %v vs x%d ≤ %v", path, a.Feature, a.Threshold, b.Feature, b.Threshold)
	}
	if s := diffNodes(path+"L", a.Left, b.Left); s != "" {
		return s
	}
	return diffNodes(path+"R", a.Right, b.Right)
}

func diffBits(what string, a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
	return ""
}

// diffTrees compares structure, thresholds, leaf counts and raw
// importance.
func diffTrees(a, b *Tree) string {
	if s := diffNodes("root:", a.Root, b.Root); s != "" {
		return s
	}
	return diffBits("importance", a.importance, b.importance)
}

// refDataset draws a training set mixing every column shape the split
// search distinguishes: one-hot groups, continuous values with more
// distinct values than MaxThresholds, heavy ties, constant columns,
// signed zeros, adjacent floats whose midpoints round onto a neighbour,
// infinities, and magnitudes whose midpoints overflow.
func refDataset(rng *stats.Rand, n, classes int) ([][]float64, []int) {
	kinds := []func() float64{
		func() float64 { return rng.Float64()*20 - 10 },
		func() float64 { return float64(rng.Intn(3)) },
		func() float64 { return 3.5 },
		func() float64 { return []float64{math.Copysign(0, -1), 0, 1}[rng.Intn(3)] },
		func() float64 {
			one := 1.0
			return []float64{one, math.Nextafter(one, 2), math.Nextafter(math.Nextafter(one, 2), 2)}[rng.Intn(3)]
		},
		func() float64 { return []float64{math.Inf(-1), math.Inf(1)}[rng.Intn(2)] },
		func() float64 { return []float64{math.Inf(-1), -2, 0, math.Inf(1)}[rng.Intn(4)] },
		func() float64 { return []float64{-1.7e308, 1e308, 1.7e308}[rng.Intn(3)] },
		func() float64 { return float64(rng.Intn(n/2 + 1)) },
	}
	var layout []func(row []float64)
	width := 0
	for g := 1 + rng.Intn(4); g > 0; g-- {
		// A one-hot group: exactly one of k columns is set.
		k, at := 2+rng.Intn(5), width
		layout = append(layout, func(row []float64) { row[at+rng.Intn(k)] = 1 })
		width += k
	}
	for c := 2 + rng.Intn(8); c > 0; c-- {
		gen, at := kinds[rng.Intn(len(kinds))], width
		layout = append(layout, func(row []float64) { row[at] = gen() })
		width++
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, width)
		for _, fill := range layout {
			fill(row)
		}
		X[i] = row
		// Labels lean on a few columns so trees grow deep, plus noise.
		score := 0.0
		for j := 0; j < width && j < 4; j++ {
			if row[j] > 0.5 {
				score += float64(j + 1)
			}
		}
		if rng.Float64() < 0.2 {
			score += float64(rng.Intn(classes))
		}
		y[i] = int(score) % classes
	}
	return X, y
}

func randomTreeConfig(rng *stats.Rand, d int) TreeConfig {
	cfg := TreeConfig{Seed: rng.Int63()}
	cfg.MinLeaf = []int{0, 1, 2, 3, 5}[rng.Intn(5)]
	cfg.MaxDepth = []int{0, 2, 4, 8}[rng.Intn(4)]
	if rng.Intn(2) == 0 {
		cfg.MaxFeatures = 1 + rng.Intn(d)
	}
	cfg.MaxThresholds = []int{0, 2, 3, 8}[rng.Intn(4)]
	return cfg
}

func TestTreeMatchesReference(t *testing.T) {
	rng := stats.NewRand(20170125)
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(160)
		classes := 2 + rng.Intn(5)
		X, y := refDataset(rng, n, classes)
		cfg := randomTreeConfig(rng, len(X[0]))
		got, err := TrainTree(X, y, classes, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := refTrainTree(X, y, classes, cfg)
		if s := diffTrees(got, want); s != "" {
			t.Fatalf("trial %d (n=%d d=%d classes=%d cfg=%+v): %s", trial, n, len(X[0]), classes, cfg, s)
		}
	}
}

// TestTrainForestDeterminism pins the parallel forest to the sequential
// reference: run it under -cpu 1,2,4 to cover every worker count.
func TestTrainForestDeterminism(t *testing.T) {
	rng := stats.NewRand(1701)
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(200)
		classes := 2 + rng.Intn(5)
		X, y := refDataset(rng, n, classes)
		cfg := ForestConfig{Trees: 1 + rng.Intn(12), Seed: rng.Int63()}
		if trial%2 == 0 {
			cfg.MaxDepth, cfg.MinLeaf = 24, 1
		}
		got, err := TrainForest(X, y, classes, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := refTrainForest(X, y, classes, cfg)
		if len(got.Trees) != len(want.Trees) {
			t.Fatalf("trial %d: %d trees, want %d", trial, len(got.Trees), len(want.Trees))
		}
		for i := range got.Trees {
			if s := diffTrees(got.Trees[i], want.Trees[i]); s != "" {
				t.Fatalf("trial %d tree %d: %s", trial, i, s)
			}
		}
		if s := diffBits("forest importance", got.importance, want.importance); s != "" {
			t.Fatalf("trial %d: %s", trial, s)
		}
		if math.Float64bits(got.OOBError()) != math.Float64bits(want.OOBError()) {
			t.Fatalf("trial %d: OOB error %v, want %v", trial, got.OOBError(), want.OOBError())
		}
	}
}

func TestTrainRejectsNaN(t *testing.T) {
	X := [][]float64{{0, 1}, {1, math.NaN()}, {2, 0}, {3, 1}}
	y := []int{0, 1, 0, 1}
	if _, err := TrainTree(X, y, 2, TreeConfig{}); !errors.Is(err, ErrBadTrainingData) {
		t.Errorf("TrainTree on NaN: %v, want ErrBadTrainingData", err)
	}
	if _, err := TrainForest(X, y, 2, ForestConfig{Trees: 3}); !errors.Is(err, ErrBadTrainingData) {
		t.Errorf("TrainForest on NaN: %v, want ErrBadTrainingData", err)
	}
	// ±Inf orders fine and stays legal.
	X[1][1] = math.Inf(1)
	if _, err := TrainForest(X, y, 2, ForestConfig{Trees: 3}); err != nil {
		t.Errorf("TrainForest on +Inf: %v", err)
	}
}

// oneHotTrainingSet mimics the PME's S-vector training matrix: 89
// one-hot dimensions in a handful of groups, four price classes that
// depend on a few of them, and label noise.
func oneHotTrainingSet(n int, seed int64) ([][]float64, []int) {
	rng := stats.NewRand(seed)
	groups := []int{24, 7, 10, 5, 3, 20, 20} // sums to 89
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, 89)
		at, score := 0, 0
		for g, k := range groups {
			v := rng.Intn(k)
			row[at+v] = 1
			at += k
			if g < 3 {
				score += v * (g + 1)
			}
		}
		if rng.Float64() < 0.3 {
			score += rng.Intn(4)
		}
		X[i], y[i] = row, score%4
	}
	return X, y
}

// BenchmarkTrainForest times one PME-shaped forest fit: about 4k rows of
// 89 one-hot dimensions, 40 trees grown to depth 24 with single-row
// leaves.
func BenchmarkTrainForest(b *testing.B) {
	X, y := oneHotTrainingSet(4320, 3)
	cfg := ForestConfig{Trees: 40, MaxDepth: 24, MinLeaf: 1, Seed: 102}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainForest(X, y, 4, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

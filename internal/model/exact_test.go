package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// The tests in this file pin the optimised CrossValidate, MLP.Train and
// Tree.Train to reference copies of the straightforward serial kernels they
// replaced: every score and every prediction must match bit for bit.

// refCrossValidate is the serial factory-by-fold loop CrossValidate
// reproduces.
func refCrossValidate(factories []Factory, X [][]float64, y []float64, k int, seed int64) ([]Score, error) {
	if _, err := validate(X, y); err != nil {
		return nil, err
	}
	if k < 2 {
		k = 2
	}
	if k > len(X) {
		k = len(X)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(X))

	scores := make([]Score, len(factories))
	for fi, fac := range factories {
		var se, re float64
		var n int
		name := ""
		for fold := 0; fold < k; fold++ {
			var trX, vaX [][]float64
			var trY, vaY []float64
			for i, p := range perm {
				if i%k == fold {
					vaX = append(vaX, X[p])
					vaY = append(vaY, y[p])
				} else {
					trX = append(trX, X[p])
					trY = append(trY, y[p])
				}
			}
			if len(trX) == 0 || len(vaX) == 0 {
				continue
			}
			m := fac()
			name = m.Name()
			if err := m.Train(trX, trY); err != nil {
				se += math.Inf(1)
				n += len(vaX)
				continue
			}
			for i := range vaX {
				pred := m.Predict(vaX[i])
				d := pred - vaY[i]
				se += d * d
				if vaY[i] != 0 {
					re += math.Abs(d) / math.Abs(vaY[i])
				}
				n++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("model: cross-validation produced no folds")
		}
		scores[fi] = Score{
			Name:   name,
			RMSE:   math.Sqrt(se / float64(n)),
			RelErr: re / float64(n),
		}
	}
	return scores, nil
}

// refTrainMLP is MLP.Train with a fresh gradient allocation per epoch and
// one slice per weight row.
func refTrainMLP(m *MLP, X [][]float64, y []float64) error {
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	m.inDims = dims
	m.std = fitStandardizer(X)
	m.tgt = fitTargetScaler(y)
	Z := m.std.applyAll(X)
	T := make([]float64, len(y))
	for i, v := range y {
		T[i] = m.tgt.encode(v)
	}

	rng := rand.New(rand.NewSource(m.seed))
	m.w1 = make([][]float64, m.hidden)
	for h := range m.w1 {
		m.w1[h] = make([]float64, dims+1)
		for j := range m.w1[h] {
			m.w1[h][j] = rng.NormFloat64() * 0.5
		}
	}
	m.w2 = make([]float64, m.hidden+1)
	for j := range m.w2 {
		m.w2[j] = rng.NormFloat64() * 0.5
	}

	n := float64(len(Z))
	act := make([]float64, m.hidden+1)
	for epoch := 0; epoch < m.epochs; epoch++ {
		g1 := make([][]float64, m.hidden)
		for h := range g1 {
			g1[h] = make([]float64, dims+1)
		}
		g2 := make([]float64, m.hidden+1)
		for i, z := range Z {
			for h := 0; h < m.hidden; h++ {
				s := m.w1[h][dims]
				for j := 0; j < dims; j++ {
					s += m.w1[h][j] * z[j]
				}
				act[h] = math.Tanh(s)
			}
			act[m.hidden] = 1
			out := dot(act, m.w2)
			errOut := out - T[i]
			for h := 0; h <= m.hidden; h++ {
				g2[h] += errOut * act[h]
			}
			for h := 0; h < m.hidden; h++ {
				dh := errOut * m.w2[h] * (1 - act[h]*act[h])
				for j := 0; j < dims; j++ {
					g1[h][j] += dh * z[j]
				}
				g1[h][dims] += dh
			}
		}
		for h := 0; h <= m.hidden; h++ {
			m.w2[h] -= m.lr * g2[h] / n
		}
		for h := 0; h < m.hidden; h++ {
			for j := 0; j <= dims; j++ {
				m.w1[h][j] -= m.lr * g1[h][j] / n
			}
		}
	}
	return nil
}

// refTrainTree is Tree.Train with fresh per-node buffers and sort.Slice.
func refTrainTree(t *Tree, X [][]float64, y []float64) error {
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	features := t.featureMask
	if features == nil {
		features = make([]int, dims)
		for i := range features {
			features[i] = i
		}
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = refBuild(t, X, y, idx, features, 0)
	return nil
}

func refBuild(t *Tree, X [][]float64, y []float64, idx, features []int, depth int) *treeNode {
	ys := make([]float64, len(idx))
	for i, j := range idx {
		ys[i] = y[j]
	}
	node := &treeNode{value: mean(ys), leaf: true}
	if depth >= t.maxDepth || len(idx) < 2*t.minLeaf || variance(ys) == 0 {
		return node
	}
	bestVar := math.Inf(1)
	bestFeature, bestSplit := -1, 0.0
	for _, f := range features {
		vals := make([]float64, len(idx))
		for i, j := range idx {
			vals[i] = X[j][f]
		}
		order := make([]int, len(idx))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
		var lsum, lsq, rsum, rsq float64
		for _, o := range order {
			rsum += ys[o]
			rsq += ys[o] * ys[o]
		}
		nl, nr := 0.0, float64(len(idx))
		for p := 0; p < len(order)-1; p++ {
			v := ys[order[p]]
			lsum += v
			lsq += v * v
			rsum -= v
			rsq -= v * v
			nl++
			nr--
			if vals[order[p]] == vals[order[p+1]] {
				continue
			}
			if int(nl) < t.minLeaf || int(nr) < t.minLeaf {
				continue
			}
			lvar := lsq - lsum*lsum/nl
			rvar := rsq - rsum*rsum/nr
			total := lvar + rvar
			if total < bestVar {
				bestVar = total
				bestFeature = f
				bestSplit = (vals[order[p]] + vals[order[p+1]]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return node
	}
	var li, ri []int
	for _, j := range idx {
		if X[j][bestFeature] <= bestSplit {
			li = append(li, j)
		} else {
			ri = append(ri, j)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return node
	}
	node.leaf = false
	node.feature = bestFeature
	node.threshold = bestSplit
	node.left = refBuild(t, X, y, li, features, depth+1)
	node.right = refBuild(t, X, y, ri, features, depth+1)
	return node
}

// exactData builds a seeded dataset of n rows over 5 features that has the
// awkward cases the kernels must agree on: a constant column, a
// small-integer column full of ties, duplicated rows, a duplicated target
// and a zero target.
func exactData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{
			rng.Float64() * 1e5,
			42,
			float64(rng.Intn(3)),
			rng.NormFloat64(),
			float64(1 + rng.Intn(16)),
		}
		X[i] = x
		y[i] = 3e-3*x[0]/x[4] + 7*x[2] + math.Abs(rng.NormFloat64())
	}
	for i := 2; i < n; i += 3 {
		X[i] = append([]float64(nil), X[i-2]...)
		y[i] = y[i-2]
	}
	if n > 4 {
		y[n-1] = y[n-2]
		y[n-3] = 0
	}
	return X, y
}

func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestCrossValidateMatchesSerialReference(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withGOMAXPROCS(t, procs)
			for _, n := range []int{3, 7, 40, 120} {
				for _, seed := range []int64{1, 2} {
					X, y := exactData(n, seed)
					facs := DefaultFactories(seed)
					want, err := refCrossValidate(facs, X, y, 5, seed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := CrossValidate(facs, X, y, 5, seed)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						w, g := want[i], got[i]
						if w.Name != g.Name || !sameBits(w.RMSE, g.RMSE) || !sameBits(w.RelErr, g.RelErr) {
							t.Errorf("n=%d seed=%d: score %d = %+v, want %+v", n, seed, i, g, w)
						}
					}
				}
			}
		})
	}
}

// failingModel cannot train on fewer than minRows rows, so small folds take
// the +Inf penalty path.
type failingModel struct {
	minRows int
	Linear
}

func (f *failingModel) Train(X [][]float64, y []float64) error {
	if len(X) < f.minRows {
		return ErrNoData
	}
	return f.Linear.Train(X, y)
}

func TestCrossValidateFailedFoldsMatchReference(t *testing.T) {
	withGOMAXPROCS(t, 4)
	facs := []Factory{
		func() Model { return &failingModel{minRows: 1 << 30} },
		func() Model { return NewKNN(2) },
		func() Model { return &failingModel{minRows: 6} },
	}
	for _, n := range []int{1, 3, 7} {
		X, y := exactData(n, 3)
		want, werr := refCrossValidate(facs, X, y, 5, 3)
		got, gerr := CrossValidate(facs, X, y, 5, 3)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("n=%d: err = %v, want %v", n, gerr, werr)
		}
		for i := range want {
			w, g := want[i], got[i]
			if w.Name != g.Name || !sameBits(w.RMSE, g.RMSE) || !sameBits(w.RelErr, g.RelErr) {
				t.Errorf("n=%d: score %d = %+v, want %+v", n, i, g, w)
			}
		}
	}
}

func TestCrossValidatePanicReachesCaller(t *testing.T) {
	withGOMAXPROCS(t, 4)
	X, y := exactData(20, 4)
	facs := []Factory{
		func() Model { return NewLinear() },
		func() Model { panic("boom") },
	}
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the factory's panic", r)
		}
	}()
	_, _ = CrossValidate(facs, X, y, 5, 4)
	t.Fatal("CrossValidate returned despite a panicking factory")
}

// probes returns the training rows plus points between and beyond them.
func probes(X [][]float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := append([][]float64(nil), X...)
	for i := 0; i < 20; i++ {
		a, b := X[rng.Intn(len(X))], X[rng.Intn(len(X))]
		p := make([]float64, len(a))
		for j := range p {
			p[j] = a[j] + (b[j]-a[j])*(rng.Float64()*1.4-0.2)
		}
		out = append(out, p)
	}
	return out
}

func assertSamePredictions(t *testing.T, label string, got, want Model, P [][]float64) {
	t.Helper()
	for _, p := range P {
		if g, w := got.Predict(p), want.Predict(p); !sameBits(g, w) {
			t.Fatalf("%s: Predict(%v) = %v, want %v", label, p, g, w)
		}
	}
}

func TestMLPTrainMatchesReference(t *testing.T) {
	for _, n := range []int{1, 3, 7, 40, 120} {
		X, y := exactData(n, int64(n))
		got, want := NewMLP(8, 300, 0.05, 9), NewMLP(8, 300, 0.05, 9)
		if err := got.Train(X, y); err != nil {
			t.Fatal(err)
		}
		if err := refTrainMLP(want, X, y); err != nil {
			t.Fatal(err)
		}
		assertSamePredictions(t, fmt.Sprintf("MLP n=%d", n), got, want, probes(X, 5))
	}
}

func TestTreeTrainMatchesReference(t *testing.T) {
	for _, n := range []int{1, 3, 7, 40, 120} {
		X, y := exactData(n, int64(n))
		for _, tc := range []struct {
			maxDepth, minLeaf int
			mask              []int
		}{{8, 2, nil}, {8, 1, nil}, {3, 1, nil}, {8, 2, []int{4, 2}}} {
			got, want := NewTree(tc.maxDepth, tc.minLeaf), NewTree(tc.maxDepth, tc.minLeaf)
			got.featureMask, want.featureMask = tc.mask, tc.mask
			if err := got.Train(X, y); err != nil {
				t.Fatal(err)
			}
			if err := refTrainTree(want, X, y); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("tree n=%d depth=%d leaf=%d mask=%v", n, tc.maxDepth, tc.minLeaf, tc.mask)
			if !sameTree(got.root, want.root) {
				t.Fatalf("%s: tree structure differs from the reference", label)
			}
			assertSamePredictions(t, label, got, want, probes(X, 6))
		}
	}
}

func sameTree(a, b *treeNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.leaf == b.leaf && a.feature == b.feature &&
		sameBits(a.threshold, b.threshold) && sameBits(a.value, b.value) &&
		sameTree(a.left, b.left) && sameTree(a.right, b.right)
}

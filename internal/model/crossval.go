package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Score summarises one model family's cross-validated fit.
type Score struct {
	Name string
	RMSE float64
	// RelErr is the mean absolute relative error |pred-actual|/actual over
	// validation folds (the paper's Fig 16 metric).
	RelErr float64
}

// CrossValidate performs k-fold cross-validation of every factory on the
// samples and returns the per-family scores, sorted by the input factory
// order. Folds are shuffled deterministically by seed.
//
// The (factory, fold) fits run on up to runtime.GOMAXPROCS(0) goroutines,
// so factories must be safe to call concurrently (see Factory). Each fit
// records its predictions in its own slot and a serial pass folds them into
// the scores in factory, fold and row order, so the result is bit-for-bit
// the same at any GOMAXPROCS.
func CrossValidate(factories []Factory, X [][]float64, y []float64, k int, seed int64) ([]Score, error) {
	if _, err := validate(X, y); err != nil {
		return nil, err
	}
	folds := makeFolds(X, y, k, seed)
	scores := make([]Score, len(factories))
	if len(factories) == 0 {
		return scores, nil
	}
	if len(folds) == 0 {
		return nil, fmt.Errorf("model: cross-validation produced no folds")
	}

	fits := make([]foldFit, len(factories)*len(folds))
	runParallel(len(fits), func(j int) {
		fits[j] = fitFold(factories[j/len(folds)], folds[j%len(folds)])
	})

	for fi := range factories {
		var se, re float64
		var n int
		name := ""
		for fold, f := range folds {
			fit := fits[fi*len(folds)+fold]
			name = fit.name
			if fit.err != nil {
				// A family that cannot train on this fold is penalised, not
				// fatal: other families may still fit.
				se += math.Inf(1)
				n += len(f.vaY)
				continue
			}
			for i, pred := range fit.preds {
				d := pred - f.vaY[i]
				se += d * d
				if f.vaY[i] != 0 {
					re += math.Abs(d) / math.Abs(f.vaY[i])
				}
				n++
			}
		}
		scores[fi] = Score{
			Name:   name,
			RMSE:   math.Sqrt(se / float64(n)),
			RelErr: re / float64(n),
		}
	}
	return scores, nil
}

// cvFold is one train/validation partition of the samples.
type cvFold struct {
	trX, vaX [][]float64
	trY, vaY []float64
}

// makeFolds shuffles the rows by seed and deals them round-robin into k
// folds (k clamped to [2, len(X)]). Folds with an empty side are dropped.
func makeFolds(X [][]float64, y []float64, k int, seed int64) []cvFold {
	if k < 2 {
		k = 2
	}
	if k > len(X) {
		k = len(X)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(X))
	folds := make([]cvFold, 0, k)
	for fold := 0; fold < k; fold++ {
		var f cvFold
		for i, p := range perm {
			if i%k == fold {
				f.vaX = append(f.vaX, X[p])
				f.vaY = append(f.vaY, y[p])
			} else {
				f.trX = append(f.trX, X[p])
				f.trY = append(f.trY, y[p])
			}
		}
		if len(f.trX) > 0 && len(f.vaX) > 0 {
			folds = append(folds, f)
		}
	}
	return folds
}

// foldFit is the outcome of training one factory on one fold.
type foldFit struct {
	name  string
	err   error
	preds []float64 // one per validation row; nil when err != nil
}

func fitFold(fac Factory, f cvFold) foldFit {
	m := fac()
	fit := foldFit{name: m.Name()}
	if fit.err = m.Train(f.trX, f.trY); fit.err != nil {
		return fit
	}
	fit.preds = make([]float64, len(f.vaX))
	for i, x := range f.vaX {
		fit.preds[i] = m.Predict(x)
	}
	return fit
}

// runParallel calls job(0..n-1) on min(n, GOMAXPROCS) goroutines, or inline
// when only one would run. A panic in a job is re-raised on the caller's
// goroutine once every worker has stopped.
func runParallel(n int, job func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for j := 0; j < n; j++ {
			job(j)
		}
		return
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if failed == nil {
						failed = r
					}
					mu.Unlock()
				}
			}()
			for j := int(next.Add(1) - 1); j < n; j = int(next.Add(1) - 1) {
				job(j)
			}
		}()
	}
	wg.Wait()
	if failed != nil {
		panic(failed)
	}
}

// SelectBest cross-validates every factory and returns the winning family
// (by RMSE) trained on the full dataset, together with all scores. Ties
// and NaNs resolve to the earliest factory.
func SelectBest(factories []Factory, X [][]float64, y []float64, k int, seed int64) (Model, []Score, error) {
	return selectBest(factories, X, y, k, seed, func(s Score) float64 { return s.RMSE })
}

// SelectBestRelative selects by mean relative error instead of RMSE. For
// targets spanning orders of magnitude (execution times from seconds to
// hours), relative error weights every scale equally — the criterion the
// paper's estimation-accuracy evaluation uses.
func SelectBestRelative(factories []Factory, X [][]float64, y []float64, k int, seed int64) (Model, []Score, error) {
	return selectBest(factories, X, y, k, seed, func(s Score) float64 { return s.RelErr })
}

func selectBest(factories []Factory, X [][]float64, y []float64, k int, seed int64, key func(Score) float64) (Model, []Score, error) {
	scores, err := CrossValidate(factories, X, y, k, seed)
	if err != nil {
		return nil, nil, err
	}
	best := 0
	for i, s := range scores {
		if !math.IsNaN(key(s)) && key(s) < key(scores[best]) {
			best = i
		}
	}
	m := factories[best]()
	if err := m.Train(X, y); err != nil {
		return nil, scores, err
	}
	return m, scores, nil
}

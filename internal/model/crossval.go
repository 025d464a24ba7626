package model

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
		return nil, errNoFolds
	}

	fits := make([]foldFit, len(factories)*len(folds))
	runParallel(len(fits), func(j int) {
		fits[j] = fitFold(factories[j/len(folds)], folds[j%len(folds)])
	})

	rows := validationRows(folds)
	for fi := range factories {
		var sum cvSum
		for fold, f := range folds {
			sum.add(fits[fi*len(folds)+fold], f)
		}
		scores[fi] = sum.score(rows)
	}
	return scores, nil
}

// cvSum accumulates one family's validation errors. Folds must be added in
// fold order, so every score is the same left-to-right sum however the fits
// were scheduled.
type cvSum struct {
	name   string
	se, re float64
}

// add folds one fit's validation errors into the sums, row by row. A family
// that cannot train on a fold is penalised with +Inf squared error, not
// failed outright: other families may still fit.
func (s *cvSum) add(fit foldFit, f cvFold) {
	s.name = fit.name
	if fit.err != nil {
		s.se += math.Inf(1)
		return
	}
	for i, pred := range fit.preds {
		d := pred - f.vaY[i]
		s.se += d * d
		if f.vaY[i] != 0 {
			s.re += math.Abs(d) / math.Abs(f.vaY[i])
		}
	}
}

// score normalises the sums by rows, the validation rows of every fold
// (failed folds included).
func (s cvSum) score(rows int) Score {
	return Score{
		Name:   s.name,
		RMSE:   math.Sqrt(s.se / float64(rows)),
		RelErr: s.re / float64(rows),
	}
}

func validationRows(folds []cvFold) int {
	n := 0
	for _, f := range folds {
		n += len(f.vaY)
	}
	return n
}

var errNoFolds = errors.New("model: cross-validation produced no folds")

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

// BestRelative returns the index of the score with the lowest mean relative
// error, the pick SelectBestRelative makes (see argmin).
func BestRelative(scores []Score) int { return argmin(scores, byRelErr) }

func byRMSE(s Score) float64   { return s.RMSE }
func byRelErr(s Score) float64 { return s.RelErr }

// argmin is the one selection rule: the lowest key wins, ties go to the
// earliest index and a NaN key never wins; only when every key is NaN does
// index 0 win.
func argmin(scores []Score, key func(Score) float64) int {
	best := -1
	for i, s := range scores {
		if v := key(s); !math.IsNaN(v) && (best < 0 || v < key(scores[best])) {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// SelectBest returns the family that cross-validates with the lowest RMSE,
// trained on the full dataset. It picks the family argmin picks over
// CrossValidate's scores, but skips the fits that cannot change the pick
// (see selectBest); callers that need every family's score call
// CrossValidate.
func SelectBest(factories []Factory, X [][]float64, y []float64, k int, seed int64) (Model, error) {
	return selectBest(factories, X, y, k, seed, byRMSE)
}

// SelectBestRelative selects by mean relative error instead of RMSE. For
// targets spanning orders of magnitude (execution times from seconds to
// hours), relative error weights every scale equally — the criterion the
// paper's estimation-accuracy evaluation uses.
func SelectBestRelative(factories []Factory, X [][]float64, y []float64, k int, seed int64) (Model, error) {
	return selectBest(factories, X, y, k, seed, byRelErr)
}

// racedFamilies lists the zoo's costliest families to fit, costliest
// first. selectBest cross-validates them one fold at a time and drops each
// as soon as its partial error proves it cannot win.
var racedFamilies = []string{"MultilayerPerceptron", "Bagging", "RandomSubSpace", "RegressionTree"}

// selectBest races the raced families against the others. A family's error
// sums are left-to-right sums of non-negative terms, and adding one under
// round-to-nearest never lowers a sum, so the sums over a family's first
// folds bound its final ones from below; normalising by the same row count
// and taking the square root keep that order. Once a raced family's partial
// key is strictly above a complete family's key, its final key is too, and
// it cannot be the earliest minimum: its remaining folds are skipped.
//
// Every other family is cross-validated in full in the first batch, next to
// fold 0 of each raced family, so the bound is there from the first round.
// Then each round drops the raced families that already lose and fits the
// next fold of the rest. The set of skipped fits depends only on the
// scores, and every computed score is summed in CrossValidate's order, so
// the pick is the one argmin makes over CrossValidate's scores, at any
// GOMAXPROCS.
func selectBest(factories []Factory, X [][]float64, y []float64, k int, seed int64, key func(Score) float64) (Model, error) {
	if _, err := validate(X, y); err != nil {
		return nil, err
	}
	if len(factories) == 0 {
		return nil, errors.New("model: no model families to select from")
	}
	folds := makeFolds(X, y, k, seed)
	if len(folds) == 0 {
		return nil, errNoFolds
	}
	rows := validationRows(folds)

	names := make([]string, len(factories))
	for fi, fac := range factories {
		names[fi] = fac().Name()
	}
	var raced, full []int
	for _, fam := range racedFamilies {
		for fi, name := range names {
			if name == fam {
				raced = append(raced, fi)
			}
		}
	}
	for fi, name := range names {
		if !slices.Contains(racedFamilies, name) {
			full = append(full, fi)
		}
	}

	// Round 0: fold 0 of every raced family, costliest first so the long
	// fits start early, then every fold of the others.
	type job struct{ fi, fold int }
	jobs := make([]job, 0, len(raced)+len(full)*len(folds))
	for _, fi := range raced {
		jobs = append(jobs, job{fi, 0})
	}
	for _, fi := range full {
		for fold := range folds {
			jobs = append(jobs, job{fi, fold})
		}
	}
	sums := make([]cvSum, len(factories))
	fits := make([]foldFit, len(jobs))
	runParallel(len(jobs), func(j int) {
		fits[j] = fitFold(factories[jobs[j].fi], folds[jobs[j].fold])
	})
	for j, jb := range jobs {
		sums[jb.fi].add(fits[j], folds[jb.fold])
	}

	// A dropped family keeps a NaN score, so it cannot win.
	scores := make([]Score, len(factories))
	for fi := range scores {
		scores[fi] = Score{RMSE: math.NaN(), RelErr: math.NaN()}
	}
	bound := math.Inf(1)
	for _, fi := range full {
		scores[fi] = sums[fi].score(rows)
		if v := key(scores[fi]); v < bound {
			bound = v
		}
	}
	for fold := 1; fold < len(folds) && len(raced) > 0; fold++ {
		raced = slices.DeleteFunc(raced, func(fi int) bool { return key(sums[fi].score(rows)) > bound })
		fits = fits[:len(raced)]
		runParallel(len(raced), func(j int) {
			fits[j] = fitFold(factories[raced[j]], folds[fold])
		})
		for j, fi := range raced {
			sums[fi].add(fits[j], folds[fold])
		}
	}
	for _, fi := range raced {
		scores[fi] = sums[fi].score(rows)
	}

	m := factories[argmin(scores, key)]()
	if err := m.Train(X, y); err != nil {
		return nil, err
	}
	return m, nil
}

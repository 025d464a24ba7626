package model

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// The tests in this file hold the racing SelectBest/SelectBestRelative to
// their oracle: full CrossValidate, then argmin, then the winner
// trained on all rows. Pruning may skip fits but never change the pick.

// posing runs one model under another family's name, so a test family can
// join (or stay out of) the race.
type posing struct {
	Model
	name string
}

func (p *posing) Name() string { return p.name }

func pose(name string, fac Factory) Factory {
	return func() Model { return &posing{Model: fac(), name: name} }
}

// nanModel is a linear fit whose prediction is NaN wherever the tie column
// is zero, so every fold that validates such a row scores NaN.
type nanModel struct{ Linear }

func (m *nanModel) Predict(x []float64) float64 {
	if x[2] == 0 {
		return math.NaN()
	}
	return m.Linear.Predict(x)
}

// constModel predicts a fixed value whatever it was trained on, and counts
// its Train calls.
type constModel struct {
	v      float64
	trains *atomic.Int64
}

func (m *constModel) Name() string { return "Constant" }
func (m *constModel) Train(X [][]float64, y []float64) error {
	if m.trains != nil {
		m.trains.Add(1)
	}
	_, err := validate(X, y)
	return err
}
func (m *constModel) Predict([]float64) float64 { return m.v }

// adversarialFactories returns the zoo plus families built to stress the
// racer's edge cases, in a seed-dependent order: raced copies of
// non-raced families (exact ties across the race boundary, on both sides of
// the original), families that score NaN, families that fail on the
// smaller folds and an always-worst raced family.
func adversarialFactories(seed int64) []Factory {
	facs := append(DefaultFactories(seed),
		pose("MultilayerPerceptron", func() Model { return NewLinear() }),
		pose("Bagging", func() Model { return NewLeastMedianSquares(seed) }),
		pose("RegressionTree", func() Model { return NewKNN(3) }),
		pose("RandomSubSpace", func() Model { return &nanModel{} }),
		func() Model { return &nanModel{} },
		pose("Bagging", func() Model { return &failingModel{minRows: 6} }),
		func() Model { return &failingModel{minRows: 30} },
		pose("MultilayerPerceptron", func() Model { return &constModel{v: 1e12} }),
	)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(facs), func(i, j int) { facs[i], facs[j] = facs[j], facs[i] })
	return facs
}

// oracleSelect trains the family best picks from full cross-validation
// scores. A family that fails every fold scores zero relative error, so it
// can win and then fail on the full data too; the racer must fail alike.
func oracleSelect(facs []Factory, scores []Score, best func([]Score) int, X [][]float64, y []float64) (Model, error) {
	m := facs[best(scores)]()
	if err := m.Train(X, y); err != nil {
		return nil, err
	}
	return m, nil
}

func TestSelectBestMatchesFullCrossValidation(t *testing.T) {
	type selector func([]Factory, [][]float64, []float64, int, int64) (Model, error)
	criteria := []struct {
		name   string
		sel    selector
		oracle func([]Score) int
	}{
		{"rmse", SelectBest, func(s []Score) int { return argmin(s, byRMSE) }},
		{"relerr", SelectBestRelative, BestRelative},
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withGOMAXPROCS(t, procs)
			for _, n := range []int{3, 7, 40, 120} {
				for _, seed := range []int64{1, 2} {
					X, y := exactData(n, seed)
					for _, facs := range [][]Factory{DefaultFactories(seed), adversarialFactories(seed)} {
						scores, err := CrossValidate(facs, X, y, 5, seed)
						if err != nil {
							t.Fatal(err)
						}
						for _, c := range criteria {
							label := fmt.Sprintf("n=%d seed=%d %s %d families", n, seed, c.name, len(facs))
							want, werr := oracleSelect(facs, scores, c.oracle, X, y)
							got, err := c.sel(facs, X, y, 5, seed)
							if (err == nil) != (werr == nil) {
								t.Fatalf("%s: err = %v, want %v", label, err, werr)
							}
							if werr != nil {
								continue
							}
							if got.Name() != want.Name() {
								t.Fatalf("%s: selected %s, want %s", label, got.Name(), want.Name())
							}
							assertSamePredictions(t, label, got, want, probes(X, seed))
						}
					}
				}
			}
		})
	}
}

func TestSelectBestPrunesLosingFamily(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withGOMAXPROCS(t, procs)
			X, y := exactData(40, 5)
			var trains atomic.Int64
			facs := []Factory{
				pose("MultilayerPerceptron", func() Model { return &constModel{v: 1e12, trains: &trains} }),
				func() Model { return NewLinear() },
			}
			m, err := SelectBestRelative(facs, X, y, 5, 5)
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() != "LinearRegression" {
				t.Fatalf("selected %s", m.Name())
			}
			if got := trains.Load(); got < 1 || got >= 5 {
				t.Fatalf("losing raced family trained %d times, want 1..4 of 5 folds", got)
			}
		})
	}
}

// A raced family whose whole error falls in fold 0 ties a complete family
// from round 1 on. A tie is not a loss: listed first, it must win.
func TestSelectBestKeepsTiedEarlierRacer(t *testing.T) {
	const n, seed = 20, 7
	X, y := exactData(n, seed)
	for i := range y {
		y[i] = float64(i + 1)
	}
	first := makeFolds(X, y, 5, seed)[0].vaY[0]
	for i := range y {
		y[i] = 3
	}
	y[int(first)-1] = 5
	facs := []Factory{
		pose("MultilayerPerceptron", func() Model { return &constModel{v: 3} }),
		func() Model { return &constModel{v: 3} },
	}
	for _, sel := range []func([]Factory, [][]float64, []float64, int, int64) (Model, error){SelectBest, SelectBestRelative} {
		m, err := sel(facs, X, y, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != "MultilayerPerceptron" {
			t.Fatalf("selected %s, want the earlier of two tied families", m.Name())
		}
	}
}

func TestArgminSkipsNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name   string
		scores []Score
		want   int
	}{
		{"nan first", []Score{{RMSE: nan, RelErr: nan}, {RMSE: 2, RelErr: 2}, {RMSE: 1, RelErr: 1}}, 2},
		{"nan between", []Score{{RMSE: 3, RelErr: 3}, {RMSE: nan, RelErr: nan}, {RMSE: 1, RelErr: 1}}, 2},
		{"ties go first", []Score{{RMSE: nan, RelErr: nan}, {RMSE: 1, RelErr: 1}, {RMSE: 1, RelErr: 1}}, 1},
		{"all nan", []Score{{RMSE: nan, RelErr: nan}, {RMSE: nan, RelErr: nan}}, 0},
		{"inf beats nan", []Score{{RMSE: nan, RelErr: nan}, {RMSE: math.Inf(1), RelErr: math.Inf(1)}}, 1},
	} {
		if got := argmin(tc.scores, byRMSE); got != tc.want {
			t.Errorf("%s: argmin by RMSE = %d, want %d", tc.name, got, tc.want)
		}
		if got := BestRelative(tc.scores); got != tc.want {
			t.Errorf("%s: BestRelative = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelectBestSkipsNaNFirstFamily(t *testing.T) {
	X, y := exactData(40, 6)
	facs := []Factory{
		func() Model { return &nanModel{} },
		func() Model { return NewKNN(3) },
	}
	for _, sel := range []func([]Factory, [][]float64, []float64, int, int64) (Model, error){SelectBest, SelectBestRelative} {
		m, err := sel(facs, X, y, 5, 6)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != "KNN" {
			t.Fatalf("selected %s, want KNN over a family that scores NaN", m.Name())
		}
	}
}

func TestSelectBestPanicReachesCaller(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withGOMAXPROCS(t, procs)
			X, y := exactData(20, 4)
			facs := []Factory{
				func() Model { return NewLinear() },
				pose("Bagging", func() Model { return &panicModel{} }),
			}
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want the model's panic", r)
				}
			}()
			_, _ = SelectBest(facs, X, y, 5, 4)
			t.Fatal("SelectBest returned despite a panicking model")
		})
	}
}

// panicModel panics when trained.
type panicModel struct{ Linear }

func (*panicModel) Train([][]float64, []float64) error { panic("boom") }

func TestSelectBestErrors(t *testing.T) {
	X, y := exactData(10, 1)
	if _, err := SelectBest(nil, X, y, 5, 1); err == nil {
		t.Error("no families accepted")
	}
	if _, err := SelectBestRelative(DefaultFactories(1), nil, nil, 5, 1); err == nil {
		t.Error("nil data accepted")
	}
	if _, err := SelectBest(DefaultFactories(1), X[:1], y[:1], 5, 1); err == nil {
		t.Error("one row accepted")
	}
}

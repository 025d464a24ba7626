package model

import "testing"

// The kernel benchmarks run on a profiling-sized dataset: 80 rows over 7
// features, the scale of one operator's observation history.
func benchData() ([][]float64, []float64) {
	return synth(80, 7, 1, func(x []float64) float64 {
		return 3*x[0]*x[1] + 5*x[2] - x[3] + x[4]*x[5]/(1+x[6])
	}, 0.5)
}

func BenchmarkCrossValidate(b *testing.B) {
	X, y := benchData()
	facs := DefaultFactories(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossValidate(facs, X, y, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectBestRelative(b *testing.B) {
	X, y := benchData()
	facs := DefaultFactories(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectBestRelative(facs, X, y, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLPTrain(b *testing.B) {
	X, y := benchData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewMLP(8, 300, 0.05, 1).Train(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeTrain(b *testing.B) {
	X, y := benchData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewTree(8, 2).Train(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

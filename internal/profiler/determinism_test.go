package profiler

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/asap-project/ires/internal/engine"
)

// observeSequence feeds a fixed run sequence through a profiler with the
// full default model zoo at the given GOMAXPROCS and returns its exported
// library plus the bits of its estimates on a probe grid.
func observeSequence(t *testing.T, procs int) (export []byte, estimates []uint64) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)

	p := New(engine.NewDefaultEnvironment(1), 1)
	p.ReselectEvery = 10
	rng := rand.New(rand.NewSource(17))
	const runs = 32 // full re-selection at least at runs 11, 21 and 31
	for i := 0; i < runs; i++ {
		records := int64(1+rng.Intn(50)) * 10_000
		var params map[string]float64
		exec := float64(records)/2e4 + rng.Float64()
		if i >= 14 {
			// A new operator parameter extends the feature set mid-stream.
			k := float64(2 + rng.Intn(4))
			params = map[string]float64{"k": k}
			exec *= k / 3
		}
		if err := p.Observe("op", obsRun(records, exec, params)); err != nil {
			t.Fatalf("Observe %d: %v", i, err)
		}
	}
	om, _ := p.Models("op")
	if got := len(om.Features); got != len(BaseFeatures)+1 {
		t.Fatalf("features = %v, want the base set extended by k", om.Features)
	}

	var buf bytes.Buffer
	if err := p.Export(&buf); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{TargetExecTime, TargetCost, TargetOutRecords, TargetOutBytes} {
		for _, rec := range []float64{5_000, 120_000, 480_000} {
			for _, k := range []float64{0, 3, 5} {
				feats := map[string]float64{
					"records": rec, "bytes": rec * 100,
					"nodes": 4, "cores": 2, "memoryMB": 3456, "k": k,
				}
				v, ok := p.Estimate("op", target, feats)
				if !ok {
					t.Fatalf("no %s estimate at %v", target, feats)
				}
				estimates = append(estimates, math.Float64bits(v))
			}
		}
	}
	return buf.Bytes(), estimates
}

// Parallel cross-validation must not change a single bit of what the
// profiler learns: the same observations give the same library and the same
// estimates at any GOMAXPROCS.
func TestObserveDeterministicAcrossGOMAXPROCS(t *testing.T) {
	serialExport, serialEst := observeSequence(t, 1)
	parallelExport, parallelEst := observeSequence(t, 4)
	if !bytes.Equal(serialExport, parallelExport) {
		t.Fatalf("Export differs between GOMAXPROCS=1 and 4:\n%s\nvs\n%s", serialExport, parallelExport)
	}
	if !slices.Equal(serialEst, parallelEst) {
		t.Fatalf("estimates differ between GOMAXPROCS=1 and 4:\n%v\nvs\n%v", serialEst, parallelEst)
	}
}

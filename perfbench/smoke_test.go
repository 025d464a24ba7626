package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	ires "github.com/asap-project/ires"
)

// declared reads the metric names BENCHMARK.json at the repository root
// declares for the untraced and the traced run.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that it passes its own correctness checks and reports exactly the
// metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, lib: "../testdata/asapLibrary", toy: true}
			for _, traced := range []bool{false, true} {
				o := options{minReps: 1, traced: traced}
				want := endToEnd
				if traced {
					o.minReps = 2
					want = perLayer
				}
				res, err := bench(w, cfg, o, io.Discard)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json declares %d", traced, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, name, m, unit)
					}
				}
			}
		})
	}
}

// TestFailedRunFailsCheck checks that a run that ends failed is a
// correctness violation, not a figure: with every attempt faulted, the
// batch-refine check must refuse the outcome.
func TestFailedRunFailsCheck(t *testing.T) {
	cfg := config{seed: 1, deploy: 1, lib: "../testdata/asapLibrary", toy: true}
	p, err := batchRefine.platform(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := batchRefine.inputs(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFaults(ires.FaultConfig{Seed: 1, Default: ires.FaultTransient{FailProb: 1}}); err != nil {
		t.Fatal(err)
	}
	ph, err := inst.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.check(ph); err == nil || !strings.Contains(err.Error(), "ended failed") {
		t.Fatalf("check = %v, want a failed run reported", err)
	}
}

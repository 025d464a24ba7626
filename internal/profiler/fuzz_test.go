package profiler

import (
	"bytes"
	"testing"

	"github.com/asap-project/ires/internal/engine"
)

// FuzzImport feeds arbitrary bytes to Import. It must never panic, and an
// accepted library must survive Export -> Import -> Export byte for byte.
// Run it with `go test -fuzz=FuzzImport ./internal/profiler`.
func FuzzImport(f *testing.F) {
	src := New(engine.NewDefaultEnvironment(12), 11)
	space := Space{
		Records:        []int64{1_000, 10_000, 100_000},
		BytesPerRecord: 40,
		Params:         map[string][]float64{"iterations": {10}},
		Resources:      []engine.Resources{engine.SingleNode},
	}
	if _, err := src.ProfileOffline("pagerank_java", engine.EngineJava, engine.AlgPagerank, space); err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := src.Export(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"version":1,"operators":[{"operator":"x","features":["a"],"samples":[[1],[2]],"targets":{"execTime":[3,4]}}]}`))
	f.Add([]byte(`{"version":2,"operators":[]}`))
	// Extreme magnitudes overflow the models' sums, a recorded family
	// skips selection, and a repeated name replaces the first operator.
	f.Add([]byte(`{"version":2,"operators":[{"operator":"x","features":["a","b"],"samples":[[1e308,1],[-1e308,2],[1e308,3],[0,4]],"targets":{"execTime":[1e308,-1e308,5e-324,0]},"chosen":{"execTime":"RegressionByDiscretization"}},{"operator":"x","features":[],"samples":[]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(engine.NewDefaultEnvironment(12), 11)
		if err := p.Import(bytes.NewReader(data)); err != nil {
			return
		}
		var first bytes.Buffer
		if err := p.Export(&first); err != nil {
			t.Fatalf("export of an imported library: %v", err)
		}
		q := New(engine.NewDefaultEnvironment(12), 11)
		if err := q.Import(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("re-import of an export: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := q.Export(&second); err != nil {
			t.Fatalf("second export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export changed across a round trip:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

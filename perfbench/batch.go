package main

import (
	"fmt"
	"math"
	"math/rand"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
)

// serverGrid is the offline profiling grid ires-server applies to a
// preloaded library (cmd/ires-server).
func serverGrid() ires.ProfileSpace {
	return ires.ProfileSpace{
		Records:        []int64{1_000, 10_000, 100_000, 1_000_000},
		BytesPerRecord: 1_000,
		Resources: []engine.Resources{
			{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456},
			{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456},
		},
	}
}

// profileAll profiles every registered operator on the grid.
func profileAll(p *ires.Platform, space ires.ProfileSpace) error {
	for _, mo := range p.Library.Operators() {
		if _, err := p.ProfileOperator(mo.Name, space); err != nil {
			return fmt.Errorf("profiling %s: %w", mo.Name, err)
		}
	}
	return nil
}

// spread returns n values log-uniformly stratified over [lo, hi]: value i
// is drawn by rng from the i-th of n equal slices of the log range, and the
// values are returned in a fixed interleaved order (the same permutation
// for every seed). Every seed therefore covers the whole range evenly with
// the same shape; the draws within each slice are what the seed changes.
func spread(rng *rand.Rand, n int, lo, hi float64) []int64 {
	out := make([]int64, n)
	span := math.Log(hi / lo)
	for i, slice := range rand.New(rand.NewSource(0)).Perm(n) {
		u := (float64(slice) + rng.Float64()) / float64(n)
		out[i] = int64(lo * math.Exp(u*span))
	}
	return out
}

// lineCountWorkflow is the one-operator LineCountWorkflow of the library
// over a server log of the given number of lines.
func lineCountWorkflow(p *ires.Platform, lines int64) (*ires.Workflow, error) {
	return p.NewWorkflow().
		DatasetWithMeta("log", fmt.Sprintf(
			"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///bench/log\nOptimization.documents=%d\nOptimization.size=%d",
			lines, lines*100)).
		Operator("LineCount", "Constraints.OpSpecification.Algorithm.name="+engine.AlgLineCount).
		Dataset("d1").
		Chain("log", "LineCount", "d1").
		Target("d1").
		Build()
}

// textClusteringWorkflow is the library's two-operator TextClustering
// workflow (tf-idf, then k-means) over a corpus of docs documents.
func textClusteringWorkflow(p *ires.Platform, docs int64) (*ires.Workflow, error) {
	return p.NewWorkflow().
		DatasetWithMeta("text", fmt.Sprintf(
			"Constraints.Engine.FS=HDFS\nConstraints.type=text\nExecution.path=hdfs:///bench/text\nOptimization.documents=%d\nOptimization.size=%d",
			docs, docs*6_000)).
		Operator("tfidf", "Constraints.OpSpecification.Algorithm.name="+engine.AlgTFIDF).
		Dataset("d1").
		Operator("kmeans", "Constraints.OpSpecification.Algorithm.name="+engine.AlgKMeans).
		Dataset("d2").
		Chain("text", "tfidf", "d1", "kmeans", "d2").
		Target("d2").
		Build()
}

// batchRefine is the ires-server deployment under a closed batch: the
// asapLibrary profiled on the server's grid with the default model zoo,
// FairShare(4) admission, and N one- and two-operator workflows submitted
// at virtual time 0, then drained. Every completed operator refits its
// models, so the run measures the refinement path users run.
var batchRefine = workload{
	name:         "batch-refine",
	subSeeds:     8,
	reseedDeploy: true,
	platform: func(cfg config, tr ires.Tracer) (*ires.Platform, error) {
		p, err := ires.NewPlatform(ires.Options{Seed: cfg.deploy, Admission: ires.FairShare(4), Tracer: tr})
		if err != nil {
			return nil, err
		}
		if _, err := p.LoadLibraryDir(cfg.lib); err != nil {
			return nil, err
		}
		return p, profileAll(p, serverGrid())
	},
	inputs: func(cfg config, p *ires.Platform) (instance, error) {
		n := 200
		if cfg.toy {
			n = 8
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		lines := spread(rng, n/2, 1e3, 1e8)
		docs := spread(rng, n-n/2, 1e3, 3e6)
		e := &execInstance{p: p}
		for i := 0; i < n; i++ {
			// LineCount and TextClustering alternate.
			var wf *ires.Workflow
			var err error
			name := "LineCountWorkflow"
			if i%2 == 0 {
				wf, err = lineCountWorkflow(p, lines[i/2])
			} else {
				name = "TextClustering"
				wf, err = textClusteringWorkflow(p, docs[i/2])
			}
			if err != nil {
				return nil, err
			}
			e.subs = append(e.subs, submission{wf: wf, opts: ires.SubmitOptions{Name: name}})
		}
		return e, nil
	},
}

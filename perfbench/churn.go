package main

import (
	"fmt"
	"math/rand"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
)

// churnIters is the iteration count of the pagerank operators.
const churnIters = 10

// churnTenants are the three tenants of the churn workload and the
// per-node slice each of their runs leases. A compute slice and an etl
// slice together oversubscribe a node's 3456 MB, which the 1.5x memory
// overcommit admits and the OOM killer then punishes.
var churnTenants = []struct {
	name        string
	cores, memM int
}{
	{"compute", 2, 768},
	{"etl", 1, 3000},
	{"adhoc", 1, 1728},
}

// churnOperators implement the two algorithms of the chain on several
// engines, so replans and speculation have somewhere else to go. The
// single-node Cilk k-means leaves room in a run's lease for a speculative
// backup copy; a gang spanning the whole lease leaves none.
var churnOperators = []struct{ name, engine, alg string }{
	{"pagerank_spark", ires.EngineSpark, engine.AlgPagerank},
	{"pagerank_hama", ires.EngineHama, engine.AlgPagerank},
	{"kmeans_spark", ires.EngineSpark, engine.AlgKMeans},
	{"kmeans_mapreduce", ires.EngineMapReduce, engine.AlgKMeans},
	{"kmeans_cilk", ires.EngineCilk, engine.AlgKMeans},
}

// pagerankKMeansWorkflow is the iterative two-operator chain
// in → pagerank → mid → kmeans → out over records input records.
func pagerankKMeansWorkflow(p *ires.Platform, records int64) (*ires.Workflow, error) {
	return p.NewWorkflow().
		DatasetWithMeta("in", fmt.Sprintf(
			"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///bench/graph\nOptimization.documents=%d\nOptimization.size=%d",
			records, records*1_000)).
		Operator("pagerank", "Constraints.OpSpecification.Algorithm.name="+engine.AlgPagerank).
		Dataset("mid").
		Operator("kmeans", "Constraints.OpSpecification.Algorithm.name="+engine.AlgKMeans).
		Dataset("out").
		Chain("in", "pagerank", "mid", "kmeans", "out").
		Target("out").
		Build()
}

// churn is the Submit→Drain path under stress: 64 nodes under DRF with 16
// slots, three tenants leasing resource slices (the third arriving late,
// which makes DRF preempt), checkpointing, retries, straggler speculation,
// the circuit breaker, 1.5x memory overcommit with the OOM killer, and
// seeded transient faults, stragglers and node crashes (each node repaired
// a while later).
var churn = workload{
	name:     "churn",
	subSeeds: 8,
	platform: func(cfg config, tr ires.Tracer) (*ires.Platform, error) {
		p, err := ires.NewPlatform(ires.Options{
			Seed:             cfg.deploy,
			ClusterNodes:     64,
			Admission:        ires.DRF(nil, 16),
			Retry:            ires.RetryPolicy{MaxAttempts: 6, BaseBackoff: 2 * time.Second},
			TimeoutFactor:    2.5,
			Checkpoint:       ires.CheckpointPolicy{Enabled: true, MinIntervalSec: 4, Durable: true},
			BreakerThreshold: 8,
			MemOvercommit:    1.5,
			// At these fault rates the default of 5 replans lets an unlucky
			// run fail, and every run must succeed.
			MaxReplans: 12,
			Tracer:     tr,
		})
		if err != nil {
			return nil, err
		}
		for _, op := range churnOperators {
			desc := fmt.Sprintf("Constraints.Engine=%s\nConstraints.OpSpecification.Algorithm.name=%s\n"+
				"Constraints.Input0.Engine.FS=HDFS\nConstraints.Output0.Engine.FS=HDFS\n", op.engine, op.alg)
			space := serverGrid()
			if op.alg == engine.AlgPagerank {
				desc += fmt.Sprintf("Optimization.param.iterations=%d\n", churnIters)
				space.Params = map[string][]float64{"iterations": {churnIters}}
			}
			if err := p.RegisterOperator(op.name, desc); err != nil {
				return nil, err
			}
			if _, err := p.ProfileOperator(op.name, space); err != nil {
				return nil, fmt.Errorf("profiling %s: %w", op.name, err)
			}
		}
		return p, nil
	},
	inputs: func(cfg config, p *ires.Platform) (instance, error) {
		perTenant := 40
		if cfg.toy {
			perTenant = 2
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		e := &execInstance{p: p, mustFire: !cfg.toy}
		for ti, t := range churnTenants {
			sizes := spread(rng, perTenant, 5e4, 4e5)
			for i, records := range sizes {
				wf, err := pagerankKMeansWorkflow(p, records)
				if err != nil {
					return nil, err
				}
				var at time.Duration
				if ti == len(churnTenants)-1 {
					// The late tenant arrives over a minute, starved of
					// slots by the two before it.
					at = time.Duration(30+60*i/perTenant) * time.Second
				}
				e.subs = append(e.subs, submission{at: at, wf: wf, opts: ires.SubmitOptions{
					Name:   fmt.Sprintf("%s-%d", t.name, i),
					Tenant: t.name, DemandCores: t.cores, DemandMemMB: t.memM,
				}})
			}
		}
		nodes := p.Cluster.Nodes()
		var crashes []ires.NodeCrash
		for i := 0; i < 4; i++ {
			crashes = append(crashes, ires.NodeCrash{
				Node: nodes[(17*i+5)%len(nodes)].Name,
				At:   time.Duration(40+50*i) * time.Second,
			})
		}
		err := p.InjectFaults(ires.FaultConfig{
			Seed:        cfg.deploy,
			Default:     ires.FaultTransient{FailProb: 0.05},
			Straggler:   ires.StragglerFaults{Prob: 0.1, Factor: 4},
			OOM:         ires.OOMKillFaults{Prob: 0.5},
			NodeCrashes: crashes,
		})
		if err != nil {
			return nil, err
		}
		for _, c := range crashes {
			p.Clock.Schedule(c.At+90*time.Second, func(time.Duration) { _ = p.RestoreNode(c.Node) })
		}
		return e, nil
	},
}

package main

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/pegasus"
	"github.com/asap-project/ires/internal/planner"
)

// pegasusEngines are the four engines every Pegasus algorithm is
// implemented on, with the file system each reads and writes.
var pegasusEngines = []struct{ name, fs string }{
	{ires.EngineSpark, "HDFS"},
	{ires.EngineMapReduce, "HDFS"},
	{ires.EngineHama, "HDFS"},
	{ires.EngineJava, "LFS"},
}

// pegasusSizes are the operator counts the DAG menu is generated at, for
// each of the five Pegasus categories.
var pegasusSizes = []int{20, 40, 80}

// flapEvery is the number of requests between two availability flips of
// the flapping engine, Spark, which most plans use, so each flip evicts
// many planner-cache entries.
const (
	flapEvery = 5
	flapped   = ires.EngineSpark
)

// unit maps a name to a fixed pseudo-random number in [0, 1).
func unit(name string) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

// pegasusWorkload is the simulated cost profile of one Pegasus algorithm.
// It is a fixed function of the algorithm's name, so every seed plans over
// the same cost landscape.
func pegasusWorkload(alg string) engine.Workload {
	aff := map[string]float64{}
	for _, e := range pegasusEngines {
		aff[e.name] = 0.6 + unit(alg+"/"+e.name)
	}
	return engine.Workload{
		Algorithm:         alg,
		UnitsPerRecord:    2 + 58*unit(alg+"/units"),
		LogN:              unit(alg+"/logn") < 0.3,
		MemBytesPerRecord: 100 + 1900*unit(alg+"/mem"),
		OutputFactor:      0.2 + 0.8*unit(alg+"/out"),
		Affinity:          aff,
	}
}

// pegasusDAG is one menu entry: a generated workflow, the intermediates a
// fault-recovery replan starts from (the outputs of its first-level
// operators), the operators a plan and a replan must cover, and the cold
// reference plan.
type pegasusDAG struct {
	name      string
	g         *ires.Workflow
	done      []planner.MaterializedIntermediate
	planOps   []string
	replanOps []string
	coldPlan  *ires.Plan
}

// request is one planning call of the closed loop.
type request struct {
	dag  int
	kind string // "plan", "pareto" or "replan"
}

type pegasusInstance struct {
	p    *ires.Platform
	dags []*pegasusDAG
	reqs []request
	// results, per request: the primary plan's estimated time and a
	// digest line for the determinism fingerprint.
	estVs   []float64
	digests []string
}

// planPegasus is the planner-bound workload: one client in a closed loop
// issues Plan, ParetoPlans and Replan requests over the five Pegasus
// categories at several sizes, every algorithm registered on four profiled
// engines, while one engine flaps every few requests. Requests revisit
// earlier DAGs, so the planner memo has shared work to reuse; nothing
// executes.
var planPegasus = workload{
	name:     "plan-pegasus",
	subSeeds: 3,
	platform: func(cfg config, tr ires.Tracer) (*ires.Platform, error) {
		p, err := ires.NewPlatform(ires.Options{Seed: cfg.deploy, Tracer: tr})
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, cat := range pegasus.Categories() {
			for _, size := range sizesFor(cfg) {
				g, err := pegasus.Generate(cat, size)
				if err != nil {
					return nil, err
				}
				for _, alg := range pegasus.Algorithms(g) {
					if seen[alg] {
						continue
					}
					seen[alg] = true
					p.Env.RegisterWorkload(pegasusWorkload(alg))
					for _, e := range pegasusEngines {
						desc := fmt.Sprintf("Constraints.Engine=%s\nConstraints.OpSpecification.Algorithm.name=%s\n"+
							"Constraints.Input0.Engine.FS=%s\nConstraints.Output0.Engine.FS=%s\n", e.name, alg, e.fs, e.fs)
						if err := p.RegisterOperator(alg+"_"+e.name, desc); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		return p, profileAll(p, serverGrid())
	},
	inputs: func(cfg config, p *ires.Platform) (instance, error) {
		rng := rand.New(rand.NewSource(cfg.seed))
		pi := &pegasusInstance{p: p}
		for _, cat := range pegasus.Categories() {
			for _, size := range sizesFor(cfg) {
				g, err := pegasus.Generate(cat, size)
				if err != nil {
					return nil, err
				}
				resize(g, rng)
				d, err := newPegasusDAG(p, fmt.Sprintf("%s-%d", cat, size), g)
				if err != nil {
					return nil, err
				}
				pi.dags = append(pi.dags, d)
			}
		}
		// The loop starts cold: the reference plans above warmed the memo.
		p.ResetPlannerCache()
		// Eight cycles make the first and the final quarter of the loop whole
		// cycles, so tail_ms_per_op always covers the same request mix.
		cycles := 8
		if cfg.toy {
			cycles = 1
		}
		for c := 0; c < cycles; c++ {
			var cycle []request
			for i := range pi.dags {
				for _, kind := range []string{"plan", "pareto", "replan"} {
					cycle = append(cycle, request{dag: i, kind: kind})
				}
			}
			rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
			pi.reqs = append(pi.reqs, cycle...)
		}
		return pi, nil
	},
}

// resize gives every source dataset of g a seeded size: log-uniform over
// a factor of 1.4 around the generator's 100k documents of 1 kB.
func resize(g *ires.Workflow, rng *rand.Rand) {
	for _, n := range g.Sources() {
		docs := int64(1e5 * math.Pow(1.4, rng.Float64()-0.5))
		n.Dataset = operator.NewDataset(n.Name, metadata.MustParse(fmt.Sprintf(
			"Execution.path=/pegasus/%s\nConstraints.Engine.FS=HDFS\nOptimization.documents=%d\nOptimization.size=%d",
			n.Name, docs, docs*1_000)))
	}
}

func sizesFor(cfg config) []int {
	if cfg.toy {
		return pegasusSizes[:1]
	}
	return pegasusSizes
}

// newPegasusDAG cold-plans g with every engine on and derives the replan
// done set from that plan.
func newPegasusDAG(p *ires.Platform, name string, g *ires.Workflow) (*pegasusDAG, error) {
	cold, err := p.Plan(g)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	d := &pegasusDAG{name: name, g: g, planOps: needed(g, nil), coldPlan: cold}
	doneDS := map[string]bool{}
	for _, n := range g.Operators() {
		first := true
		for _, in := range n.Inputs {
			if len(in.Inputs) > 0 {
				first = false
			}
		}
		if !first {
			continue
		}
		s, ok := cold.StepFor(n.Name)
		if !ok {
			return nil, fmt.Errorf("%s: cold plan has no step for %s", name, n.Name)
		}
		doneDS[s.OutDataset] = true
		d.done = append(d.done, planner.MaterializedIntermediate{
			Dataset: s.OutDataset, Meta: s.OutMeta, Records: s.OutRecords, Bytes: s.OutBytes,
		})
	}
	d.replanOps = needed(g, doneDS)
	return d, nil
}

// run is the timed closed loop.
func (pi *pegasusInstance) run() (*phase, error) {
	ph := &phase{ops: len(pi.reqs)}
	stamps := make([]time.Time, 0, len(pi.reqs))
	on := true
	ph.t0 = time.Now()
	for i, rq := range pi.reqs {
		if i > 0 && i%flapEvery == 0 {
			on = !on
			pi.p.SetEngineAvailable(flapped, on)
		}
		start := time.Now()
		est, digest, err := pi.serve(rq)
		done := time.Now()
		stamps = append(stamps, done)
		ph.opMs = append(ph.opMs, float64(done.Sub(start))/1e6)
		if err != nil {
			return nil, fmt.Errorf("correctness: request %d: %w", i, err)
		}
		pi.estVs = append(pi.estVs, est)
		pi.digests = append(pi.digests, digest)
	}
	if !on {
		pi.p.SetEngineAvailable(flapped, true)
	}
	ph.end = time.Now()
	ph.headMs, ph.tailMs = quarterCosts(ph.t0, stamps)
	return ph, nil
}

// serve issues one request and checks that its plans cover every operator
// the target needs — for Replan, every one the done set does not already
// provide. It returns the estimated time of the primary plan (the fastest
// of a Pareto front) and a digest of the answer.
func (pi *pegasusInstance) serve(rq request) (float64, string, error) {
	d := pi.dags[rq.dag]
	var plans []*ires.Plan
	switch rq.kind {
	case "plan":
		pl, err := pi.p.Plan(d.g)
		if err != nil {
			return 0, "", err
		}
		plans = []*ires.Plan{pl}
	case "pareto":
		front, err := pi.p.ParetoPlans(d.g)
		if err != nil {
			return 0, "", err
		}
		plans = front
	case "replan":
		pl, err := pi.p.Replan(d.g, d.done)
		if err != nil {
			return 0, "", err
		}
		plans = []*ires.Plan{pl}
	}
	if len(plans) == 0 {
		return 0, "", fmt.Errorf("%s %s: no plan", rq.kind, d.name)
	}
	best := math.Inf(1)
	digest := fmt.Sprintf("%s %s", rq.kind, d.name)
	ops := d.planOps
	if rq.kind == "replan" {
		ops = d.replanOps
	}
	for _, pl := range plans {
		for _, op := range ops {
			if _, ok := pl.StepFor(op); !ok {
				return 0, "", fmt.Errorf("%s %s: plan has no step for %s", rq.kind, d.name, op)
			}
		}
		best = math.Min(best, pl.EstTimeSec)
		digest += fmt.Sprintf(" %.9g/%.9g/%d", pl.EstTimeSec, pl.EstCost, len(pl.Steps))
	}
	return best, digest, nil
}

// check compares warm plans with cold ones made after ResetPlannerCache and
// fills in the plan-quality outcome. Nothing executes on this workload, so
// its virtual-time figures are the planner's own: run_vs is each request's
// estimated time, makespan_vs the estimated time of running every menu DAG
// once on its cold plan, and est_err compares every operator-step estimate
// of those plans with the environment's noise-free ground truth.
func (pi *pegasusInstance) check(ph *phase) error {
	warm := make([]*ires.Plan, len(pi.dags))
	for i, d := range pi.dags {
		pl, err := pi.p.Plan(d.g)
		if err != nil {
			return fmt.Errorf("warm plan %s: %w", d.name, err)
		}
		warm[i] = pl
	}
	pi.p.ResetPlannerCache()
	fp := sha256.New()
	for i, d := range pi.dags {
		cold, err := pi.p.Plan(d.g)
		if err != nil {
			return fmt.Errorf("cold plan %s: %w", d.name, err)
		}
		desc := cold.Describe()
		if warm[i].Describe() != desc {
			return fmt.Errorf("%s: warm plan differs from the cold plan after ResetPlannerCache:\nwarm:\n%s\ncold:\n%s",
				d.name, warm[i].Describe(), desc)
		}
		if desc != d.coldPlan.Describe() {
			return fmt.Errorf("%s: cold plan after the loop differs from the cold plan before it", d.name)
		}
		fp.Write([]byte(desc))
		ph.makespanVs += cold.EstTimeSec
		for _, s := range cold.Steps {
			if s.Kind != planner.StepOperator {
				continue
			}
			truth, err := pi.p.Env.GroundTruthSec(s.Engine, s.Algorithm,
				engine.Input{Records: s.InRecords, Bytes: s.InBytes, Params: s.Params}, engine.Resources(s.Res))
			if err != nil || truth <= 0 {
				continue
			}
			ph.estErr = append(ph.estErr, math.Abs(s.EstTimeSec-truth)/truth)
		}
	}
	for _, dg := range pi.digests {
		fmt.Fprintln(fp, dg)
	}
	ph.runVs = pi.estVs
	ph.fingerprint = fmt.Sprintf("%x", fp.Sum(nil))
	return nil
}

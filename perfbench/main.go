// Command perfbench is the repository's end-to-end benchmark: it drives
// named workloads through the public ires API, checks every output, and
// reports wall-clock cost, planning latency and plan quality — plus, in a
// traced run, the share of wall time each layer takes.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload batch-refine --seed 1 --seconds 30 --trace 0
//
// One run repeats set-up + timed phase, cycling through several input draws
// of the seed, until --seconds have passed, and reports medians across the
// repetitions. The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// With --trace 1 the metrics are the per-layer figures of traced
// repetitions, alternated with untraced ones; -cpuprofile and -memprofile
// then profile the traced repetitions. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	ires "github.com/asap-project/ires"
)

// config carries what a workload builds its deployment and inputs from.
type config struct {
	// seed seeds the workload's inputs.
	seed int64
	// deploy seeds the deployment: engine noise, model selection and fault
	// draws.
	deploy int64
	lib    string
	// toy shrinks every workload to a few operations (smoke tests).
	toy bool
}

// phase is the outcome of one timed phase.
type phase struct {
	ops     int
	t0, end time.Time
	// opMs is the wall cost per operation: the latency of each plan
	// request, or of each of 20 consecutive windows of run completions.
	opMs           []float64
	headMs, tailMs float64

	// Virtual-time outcome, filled in by check.
	makespanVs  float64
	runVs       []float64
	estErr      []float64
	fingerprint string
}

// instance is one set-up workload, ready for its timed phase.
type instance interface {
	run() (*phase, error)
	check(ph *phase) error
}

// workload is one named benchmark workload. platform is the timed set-up
// (NewPlatform, library, offline profiling); inputs generates the seeded
// inputs outside any timer. A run cycles through subSeeds input draws.
type workload struct {
	name     string
	subSeeds int
	// reseedDeploy seeds each draw's deployment with the draw's own seed,
	// so a run's medians span as many model selections as input draws.
	// Otherwise every draw runs on deployment seed 1: on churn and
	// plan-pegasus, medians over re-rolled deployments spread across
	// seeds by more than the bounds allow (see README.md).
	reseedDeploy bool
	platform     func(cfg config, tr ires.Tracer) (*ires.Platform, error)
	inputs       func(cfg config, p *ires.Platform) (instance, error)
}

var workloads = []workload{batchRefine, planPegasus, churn}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rep is one repetition: set-up plus timed phase.
type rep struct {
	traced  bool
	setupS  float64
	ph      *phase
	wallS   float64
	allocs  float64 // heap allocations during the timed phase
	gcs     float64
	pauseMs float64
	heapMB  float64 // live heap after the phase and a forced GC
	layers  map[string]float64
}

func runRep(w workload, cfg config, traced bool) (*rep, error) {
	var pr *probe
	var tr ires.Tracer
	if traced {
		pr = &probe{}
		tr = pr
	}
	runtime.GC()
	start := time.Now()
	p, err := w.platform(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(start)
	inst, err := w.inputs(cfg, p)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	if traced {
		p.SetRunObserver(pr.observe)
		pr.reset()
	}
	before := readCounters(p)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph, err := inst.run()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	wall := ph.end.Sub(ph.t0)
	r := &rep{
		traced:  traced,
		setupS:  setup.Seconds(),
		ph:      ph,
		wallS:   wall.Seconds(),
		allocs:  float64(m1.Mallocs - m0.Mallocs),
		gcs:     float64(m1.NumGC - m0.NumGC),
		pauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
	if traced {
		// Before check: its own planning must not be charged to the phase.
		r.layers = layerMetrics(pr, p, wall, ph.ops, before, readCounters(p))
	}
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	r.heapMB = float64(m2.HeapAlloc) / 1e6
	if err := inst.check(ph); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	return r, nil
}

// endToEnd derives the end-to-end metrics of one untraced repetition.
func endToEnd(r *rep) map[string]metric {
	ph := r.ph
	ops := float64(ph.ops)
	return map[string]metric{
		"setup_s":       {r.setupS, "s"},
		"ops_per_s":     {ops / r.wallS, "1/s"},
		"allocs_per_op": {r.allocs / ops, "count"},
		"live_heap_mb":  {r.heapMB, "MB"},
		"makespan_vs":   {ph.makespanVs, "vs"},
		"run_vs_p50":    {pct(ph.runVs, 50), "vs"},
		"run_vs_p95":    {pct(ph.runVs, 95), "vs"},
		"est_err_p50":   {pct(ph.estErr, 50), "ratio"},
	}
}

// layerUnits lists the per-layer metrics computed by layerMetrics, in
// report order, with their units.
var layerUnits = []struct{ name, unit string }{
	{"profiler.observes", "count"}, {"profiler.observe_ms_p50", "ms"}, {"profiler.observe_ms_p95", "ms"},
	{"profiler.observe_share", "ratio"}, {"profiler.train_rows_max", "count"}, {"profiler.pred_hit_ratio", "ratio"},
	{"planner.calls", "count"}, {"planner.ms_p50", "ms"}, {"planner.ms_p95", "ms"}, {"planner.share", "ratio"},
	{"planner.candidates_per_call", "count"}, {"planner.cache_hit_ratio", "ratio"},
	{"planner.evicted_per_invalidation", "count"}, {"planner.cache_entries", "count"}, {"planner.cache_flushes", "count"},
	{"scheduler.admits", "count"}, {"scheduler.preemptions", "count"}, {"scheduler.queue_wait_vs_p50", "vs"},
	{"executor.attempts", "count"}, {"executor.useful_ratio", "ratio"}, {"executor.retries", "count"},
	{"executor.speculations", "count"}, {"executor.replans", "count"}, {"executor.ckpt_writes", "count"},
	{"executor.ckpt_restores", "count"},
	{"cluster.container_allocs", "count"}, {"cluster.containers_lost", "count"}, {"cluster.lease_ops", "count"},
	{"cluster.oom_kills", "count"},
	{"trace.events_per_op", "count"}, {"trace.emit_ns_per_event", "ns"}, {"trace.expose_ms", "ms"},
	{"other.ms_per_op", "ms"},
}

// perLayer derives the per-layer metrics of one traced repetition;
// plainWallS is the wall time of the untraced repetition paired with it on
// the same inputs, for the tracing overhead.
func perLayer(r *rep, plainWallS float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits)+8)
	for _, l := range layerUnits {
		out[l.name] = metric{r.layers[l.name], l.unit}
	}
	out["gc.cycles"] = metric{r.gcs, "count"}
	out["gc.pause_ms_total"] = metric{r.pauseMs, "ms"}
	out["trace_overhead"] = metric{ratio(r.wallS, plainWallS) - 1, "ratio"}
	out["head_ms_per_op"] = metric{r.ph.headMs, "ms"}
	out["tail_ms_per_op"] = metric{r.ph.tailMs, "ms"}
	out["tail_over_head"] = metric{ratio(r.ph.tailMs, r.ph.headMs), "ratio"}
	out["op_ms_p50"] = metric{pct(r.ph.opMs, 50), "ms"}
	out["op_ms_p95"] = metric{pct(r.ph.opMs, 95), "ms"}
	return out
}

// medianMetrics folds per-repetition metric maps into their medians.
func medianMetrics(ms []map[string]metric) map[string]metric {
	out := map[string]metric{}
	for name, m := range ms[0] {
		vals := make([]float64, len(ms))
		for i, x := range ms {
			vals[i] = x[name].Value
		}
		out[name] = metric{median(vals), m.Unit}
	}
	return out
}

// options controls one benchmark run.
type options struct {
	// seconds is the wall budget: repetitions continue until it is spent
	// and minReps have run.
	seconds float64
	minReps int
	traced  bool
	// cpuProfile and memProfile name the profile outputs of a traced run.
	cpuProfile, memProfile string
}

// inputMetrics are the end-to-end metrics a repetition's inputs fix: the
// virtual-time outcome exactly, allocations and the live heap up to the Go
// runtime's own bookkeeping. They are folded over the distinct sub-seeds
// only, so a run weighs every input draw once, however many repetitions its
// wall budget allowed.
var inputMetrics = []string{"makespan_vs", "run_vs_p50", "run_vs_p95", "est_err_p50", "allocs_per_op", "live_heap_mb"}

// subSeed is the input seed of the sub-th draw of a run's seed.
func subSeed(seed int64, sub int) int64 { return seed<<16 | int64(sub) }

// bench runs repetitions until the time budget is spent and folds them into
// the result. A workload's figures depend on its seeded draws as much as on
// the code — which operators a batch trains and which model families win
// selection — so repetition i takes its draw from sub-seed i mod w.subSeeds
// of the run's seed, and a run reports medians over several draws. Traced
// runs pair each traced repetition with an untraced one on the same
// sub-seed.
//
// Virtual-time outcomes must match exactly whenever a sub-seed repeats: the
// same draws must give the same plans and makespans, traced or not. Any
// operation that does not succeed fails the run.
func bench(w workload, cfg config, o options, log io.Writer) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var reps []*rep
	fingerprints := map[int]string{}
	var firsts []*rep // the first repetition of each sub-seed
	start := time.Now()
	for i := 0; i < o.minReps || time.Since(start).Seconds() < o.seconds; i++ {
		sub, t := i%w.subSeeds, false
		if o.traced {
			sub, t = (i/2)%w.subSeeds, i%2 == 1
		}
		c := cfg
		c.seed, c.deploy = subSeed(cfg.seed, sub), 1
		if w.reseedDeploy {
			c.deploy = c.seed
		}
		r, err := profiledRep(w, c, t, o.cpuProfile, i)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		fmt.Fprintf(log, "rep %d sub-seed %d traced=%v setup=%.3fs wall=%.3fs head=%.2fms tail=%.2fms ops=%d\n",
			i, sub, t, r.setupS, r.wallS, r.ph.headMs, r.ph.tailMs, r.ph.ops)
		res.Attempted += r.ph.ops
		if fp, ok := fingerprints[sub]; !ok {
			fingerprints[sub] = r.ph.fingerprint
			firsts = append(firsts, r)
		} else if fp != r.ph.fingerprint {
			return nil, errors.New("correctness: virtual-time outcome differs between repetitions of the same inputs")
		}
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return nil, err
		}
	}
	var plain, tracedMs, firstMs []map[string]metric
	for _, r := range reps {
		if !r.traced {
			plain = append(plain, endToEnd(r))
		}
	}
	if !o.traced {
		for _, r := range firsts {
			firstMs = append(firstMs, endToEnd(r))
		}
		res.Metrics = medianMetrics(plain)
		byInputs := medianMetrics(firstMs)
		for _, name := range inputMetrics {
			res.Metrics[name] = byInputs[name]
		}
		return res, nil
	}
	for i, r := range reps {
		if r.traced {
			// reps[i-1] is the untraced repetition of the same sub-seed.
			tracedMs = append(tracedMs, perLayer(r, reps[i-1].wallS))
		}
	}
	res.Metrics = medianMetrics(tracedMs)
	return res, nil
}

// profiledRep runs one repetition, under the CPU profiler when it is traced
// and a profile was asked for.
func profiledRep(w workload, cfg config, traced bool, cpuProfile string, i int) (*rep, error) {
	if !traced || cpuProfile == "" {
		return runRep(w, cfg, traced)
	}
	f, err := os.Create(fmt.Sprintf("%s.%d", cpuProfile, i))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	defer pprof.StopCPUProfile()
	return runRep(w, cfg, traced)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: batch-refine, plan-pegasus or churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "measure for at least this many wall seconds")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from traced repetitions")
	lib := fs.String("lib", "testdata/asapLibrary", "asapLibrary directory batch-refine loads")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of each traced repetition to FILE.<rep>")
	memProfile := fs.String("memprofile", "", "write an allocation profile to FILE at the end")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	// An untraced run repeats one sub-seed to check determinism; a traced
	// run checks it within every untraced/traced pair.
	o := options{seconds: *seconds, minReps: w.subSeeds + 1, traced: *traced == 1, cpuProfile: *cpuProfile, memProfile: *memProfile}
	if o.traced {
		o.minReps = 4
	}
	res, err := bench(w, config{seed: *seed, lib: *lib}, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

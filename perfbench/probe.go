package main

import (
	"io"
	"maps"
	"sync"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/trace"
)

// probe is the traced run's instrument. It is passed to the platform as its
// extra Options.Tracer and registered through SetRunObserver, so it sees
// every layer from the outside: it stamps events with wall time to pair
// plan.start with plan.finish into planner spans and attempt.finish with
// the observer callback into refinement spans, and keeps the event stream
// for the per-layer counts and the trace-layer replay.
type probe struct {
	mu        sync.Mutex
	events    []trace.Event
	obs       observeSpans
	observes  int
	planOpen  time.Time
	planSpans []time.Duration
}

// Emit implements trace.Tracer. Fields are copied because emitters keep
// ownership of the map they hand over.
func (pr *probe) Emit(ev trace.Event) {
	at := time.Now()
	ev.Fields = maps.Clone(ev.Fields)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.events = append(pr.events, ev)
	switch ev.Type {
	case trace.EvAttemptFinish:
		if ev.Operator != "" {
			pr.obs.finished(ev.Operator, at)
		}
	case trace.EvAttemptFail:
		pr.obs.failed(at)
	case trace.EvPlanStart:
		pr.planOpen = at
	case trace.EvPlanFinish:
		if !pr.planOpen.IsZero() {
			pr.planSpans = append(pr.planSpans, at.Sub(pr.planOpen))
			pr.planOpen = time.Time{}
		}
	}
}

// observe is the SetRunObserver callback: it closes a refinement span.
func (pr *probe) observe(op string, _ *ires.RunMetrics) {
	at := time.Now()
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.observes++
	pr.obs.observed(op, at)
}

// reset drops everything captured so far (set-up emits nothing the timed
// phase should be charged for).
func (pr *probe) reset() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.events, pr.obs, pr.observes = nil, observeSpans{}, 0
	pr.planOpen, pr.planSpans = time.Time{}, nil
}

// counters is the platform state the per-layer figures are differenced
// against: cache counters before and after the timed phase.
type counters struct {
	plan                 planner.CacheStats
	predHits, predMisses uint64
}

func readCounters(p *ires.Platform) counters {
	h, m := p.Profiler.PredictionCacheStats()
	return counters{plan: p.PlannerCacheStats(), predHits: h, predMisses: m}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer figures of one traced repetition. wall
// is the timed phase's wall time and ops its operation count; before/after
// bracket the phase.
func layerMetrics(pr *probe, p *ires.Platform, wall time.Duration, ops int, before, after counters) map[string]float64 {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	m := map[string]float64{}
	fops := float64(ops)

	obsMs := msOf(pr.obs.spans)
	m["profiler.observes"] = float64(pr.observes)
	m["profiler.observe_ms_p50"] = pct(obsMs, 50)
	m["profiler.observe_ms_p95"] = pct(obsMs, 95)
	m["profiler.observe_share"] = ratio(float64(pr.obs.total()), float64(wall))
	rows := 0
	for _, op := range p.Profiler.Operators() {
		if om, ok := p.Profiler.Models(op); ok && om.SampleCount() > rows {
			rows = om.SampleCount()
		}
	}
	m["profiler.train_rows_max"] = float64(rows)
	m["profiler.pred_hit_ratio"] = ratio(float64(after.predHits-before.predHits),
		float64(after.predHits-before.predHits+after.predMisses-before.predMisses))

	planMs := msOf(pr.planSpans)
	var planTotal time.Duration
	for _, d := range pr.planSpans {
		planTotal += d
	}
	m["planner.calls"] = float64(len(pr.planSpans))
	m["planner.ms_p50"] = pct(planMs, 50)
	m["planner.ms_p95"] = pct(planMs, 95)
	m["planner.share"] = ratio(float64(planTotal), float64(wall))
	bp, ap := before.plan, after.plan
	m["planner.cache_hit_ratio"] = ratio(float64(ap.Hits-bp.Hits), float64(ap.Hits-bp.Hits+ap.Misses-bp.Misses))
	m["planner.evicted_per_invalidation"] = ratio(float64(ap.EvictedEntries-bp.EvictedEntries),
		float64(ap.PartialInvalidations-bp.PartialInvalidations))
	m["planner.cache_entries"] = float64(ap.NodeEntries)
	m["planner.cache_flushes"] = float64(ap.Epoch - bp.Epoch)

	var (
		candidates, candCalls                     float64
		admits, preempts                          float64
		waits                                     []float64
		starts, finishes, retries, specs, replans float64
		ckptW, ckptR                              float64
		allocs, lost, leases, ooms                float64
	)
	for _, ev := range pr.events {
		switch ev.Type {
		case trace.EvPlanFinish:
			if c, ok := ev.Fields["candidatesTried"]; ok {
				candidates += c
				candCalls++
			}
		case trace.EvRunAdmit:
			admits++
			waits = append(waits, ev.Fields["waitSec"])
		case trace.EvRunSuspend:
			preempts++
		case trace.EvAttemptStart:
			starts++
		case trace.EvAttemptFinish:
			finishes++
		case trace.EvAttemptRetry:
			retries++
		case trace.EvSpeculate:
			specs++
		case trace.EvReplan:
			replans++
		case trace.EvCheckpointWrite:
			ckptW++
		case trace.EvCheckpointRestore:
			ckptR++
		case trace.EvContainerAlloc:
			allocs += ev.Fields["containers"]
		case trace.EvContainerLost:
			lost += ev.Fields["containers"]
		case trace.EvLeaseGrant, trace.EvLeaseGrow, trace.EvLeaseShrink, trace.EvLeaseRevoke:
			leases++
		case trace.EvOOMKill:
			ooms++
		}
	}
	m["planner.candidates_per_call"] = ratio(candidates, candCalls)
	m["scheduler.admits"] = admits
	m["scheduler.preemptions"] = preempts
	m["scheduler.queue_wait_vs_p50"] = pct(waits, 50)
	m["executor.attempts"] = starts
	m["executor.useful_ratio"] = ratio(finishes, starts)
	m["executor.retries"] = retries
	m["executor.speculations"] = specs
	m["executor.replans"] = replans
	m["executor.ckpt_writes"] = ckptW
	m["executor.ckpt_restores"] = ckptR
	m["cluster.container_allocs"] = allocs
	m["cluster.containers_lost"] = lost
	m["cluster.lease_ops"] = leases
	m["cluster.oom_kills"] = ooms

	m["trace.events_per_op"] = ratio(float64(len(pr.events)), fops)
	m["trace.emit_ns_per_event"] = replayEmitNs(pr.events)
	m["trace.expose_ms"] = exposeMs(p.Metrics())
	other := wall - pr.obs.total() - planTotal
	m["other.ms_per_op"] = ratio(float64(other)/1e6, fops)
	return m
}

// replayEmitNs replays a captured event stream into a fresh recorder and
// returns the mean wall nanoseconds per Emit. The copies handed to Emit are
// built before the clock starts, so only the recorder's own work is timed.
func replayEmitNs(events []trace.Event) float64 {
	if len(events) == 0 {
		return 0
	}
	evs := make([]trace.Event, len(events))
	for i, ev := range events {
		evs[i] = ev
		evs[i].Seq = 0
		evs[i].Fields = maps.Clone(ev.Fields)
	}
	rec := trace.NewRecorder(0)
	start := time.Now()
	for _, ev := range evs {
		rec.Emit(ev)
	}
	return float64(time.Since(start)) / float64(len(evs))
}

// exposeMs is the median wall time of rendering the platform's metrics
// registry in the Prometheus text format, over five renders.
func exposeMs(reg *ires.MetricsRegistry) float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := reg.WritePrometheus(io.Discard); err != nil {
			return 0
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms)
}

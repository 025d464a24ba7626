package main

import (
	"math"
	"sort"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/executor"
	"github.com/asap-project/ires/internal/planner"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule — the value at 1-based rank ceil(p/100 · n) of the
// sorted sample — together with n, the sample count the rank was taken
// over. The rule never interpolates, so a reported percentile is always an
// observed value; below 20 samples the 95th percentile is the maximum. With
// no samples it returns (0, 0). xs is not modified.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// pct is percentile without the sample count.
func pct(xs []float64, p float64) float64 {
	v, _ := percentile(xs, p)
	return v
}

// median is the midpoint median (the mean of the two middle values of an
// even sample), used to summarise one metric across the repetitions of a
// run. It returns 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// estErrors pairs the executed operator steps of one run with the plan's
// estimates: |EstTimeSec − actual| / actual per step, actual being the
// attempt's virtual duration. Only the first attempt of an operator step is
// paired: move steps, failed attempts, retried attempts (Attempt > 1) and
// speculative copies are skipped, as is any step the plan does not hold on
// the engine that ran it (a replanned run keeps only its final plan).
func estErrors(plan *ires.Plan, log []executor.StepExec) []float64 {
	if plan == nil {
		return nil
	}
	steps := make(map[string]*ires.PlanStep, len(plan.Steps))
	for _, s := range plan.Steps {
		if s.Kind == planner.StepOperator {
			steps[s.Name] = s
		}
	}
	var errs []float64
	for _, x := range log {
		if x.Failed || x.Speculative || x.Attempt > 1 {
			continue
		}
		s, ok := steps[x.Name]
		if !ok || s.Engine != x.Engine {
			continue
		}
		actual := (x.End - x.Start).Seconds()
		if actual <= 0 {
			continue
		}
		errs = append(errs, math.Abs(s.EstTimeSec-actual)/actual)
	}
	return errs
}

// observeSpans pairs model-refinement callbacks with the executor events
// that open them. For a completed operator step the executor emits
// attempt.finish and then calls the platform's observer, which refits the
// operator's models (Profiler.Observe, including the planner's typed cache
// eviction it triggers) before the SetRunObserver callback fires; a failed
// attempt carrying a genuine engine verdict is observed right after its
// attempt.fail instead. Execution holds the virtual-time token throughout,
// so events and callbacks arrive in program order and a span is the wall
// time from the opening event to the callback.
//
// Attempts seeded from a checkpoint emit attempt.finish without being
// observed; their stamp is simply overwritten by the operator's next
// finish, or loses to a later attempt.fail.
type observeSpans struct {
	finish map[string]time.Time // operator -> latest unpaired attempt.finish
	fail   time.Time            // latest unpaired attempt.fail (zero: none)
	spans  []time.Duration
}

func (o *observeSpans) finished(op string, at time.Time) {
	if o.finish == nil {
		o.finish = make(map[string]time.Time)
	}
	o.finish[op] = at
}

func (o *observeSpans) failed(at time.Time) { o.fail = at }

// observed closes the span of one refinement callback for op, opened by the
// later of op's pending attempt.finish and the pending attempt.fail (both
// are consumed); a callback with neither opens no span.
func (o *observeSpans) observed(op string, at time.Time) {
	fin, okFin := o.finish[op]
	okFail := !o.fail.IsZero()
	switch {
	case okFin && (!okFail || !o.fail.After(fin)):
		delete(o.finish, op)
		o.spans = append(o.spans, at.Sub(fin))
	case okFail:
		delete(o.finish, op)
		o.spans = append(o.spans, at.Sub(o.fail))
		o.fail = time.Time{}
	}
}

// total sums the paired spans.
func (o *observeSpans) total() time.Duration {
	var t time.Duration
	for _, d := range o.spans {
		t += d
	}
	return t
}

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// quarterCosts splits the wall-clock completion stamps of n operations
// (sorted, measured from the phase start at t0) into the mean wall
// milliseconds per operation over the first and over the final quarter of
// completions. The final quarter spans from the completion just before it
// to the last completion, so both figures are per-operation increments.
func quarterCosts(t0 time.Time, done []time.Time) (head, tail float64) {
	n := len(done)
	if n == 0 {
		return 0, 0
	}
	q := n / 4
	if q < 1 {
		q = 1
	}
	head = float64(done[q-1].Sub(t0)) / 1e6 / float64(q)
	from := t0
	if n-q-1 >= 0 {
		from = done[n-q-1]
	}
	tail = float64(done[n-1].Sub(from)) / 1e6 / float64(q)
	return head, tail
}

// windowMs splits the sorted completion stamps of a closed batch into
// (up to) w consecutive windows of equal count and returns each window's
// wall milliseconds per completed operation, the first window measured
// from t0: the batch's per-operation cost curve. Single completions are too
// bursty to rank — runs finishing at the same virtual instant complete
// microseconds apart — so percentiles are taken over windows.
func windowMs(t0 time.Time, done []time.Time, w int) []float64 {
	n := len(done)
	if w > n {
		w = n
	}
	out := make([]float64, 0, w)
	prev, from := t0, 0
	for k := 1; k <= w; k++ {
		to := k * n / w
		out = append(out, float64(done[to-1].Sub(prev))/1e6/float64(to-from))
		prev, from = done[to-1], to
	}
	return out
}

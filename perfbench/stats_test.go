package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/executor"
	"github.com/asap-project/ires/internal/planner"
)

func TestPercentileNearestRank(t *testing.T) {
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(20 - i) // 20..1, unsorted on purpose
	}
	nineteen := twenty[1:] // 19..1
	cases := []struct {
		name  string
		xs    []float64
		p     float64
		want  float64
		wantN int
	}{
		{"p50 of 20 is rank 10", twenty, 50, 10, 20},
		{"p95 of 20 is rank 19, not the max", twenty, 95, 19, 20},
		{"p95 of 19 is rank 19, the max", nineteen, 95, 19, 19},
		{"p100 is the max", twenty, 100, 20, 20},
		{"tiny p is the min", twenty, 0.1, 1, 20},
		{"one sample", []float64{7}, 95, 7, 1},
		{"no samples", nil, 50, 0, 0},
	}
	for _, c := range cases {
		got, n := percentile(c.xs, c.p)
		if got != c.want || n != c.wantN {
			t.Errorf("%s: percentile = (%v, %d), want (%v, %d)", c.name, got, n, c.want, c.wantN)
		}
	}
	if twenty[0] != 20 {
		t.Errorf("percentile reordered its input")
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestEstErrorsPairing(t *testing.T) {
	plan := &ires.Plan{Steps: []*ires.PlanStep{
		{Kind: planner.StepOperator, Name: "a/op_spark", Engine: "Spark", EstTimeSec: 10},
		{Kind: planner.StepMove, Name: "move->b", Engine: "move", EstTimeSec: 5},
		{Kind: planner.StepOperator, Name: "b/op_java", Engine: "Java", EstTimeSec: 20},
	}}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	log := []executor.StepExec{
		{Name: "a/op_spark", Engine: "Spark", Start: sec(2), End: sec(10), Attempt: 1}, // paired: |10-8|/8
		{Name: "move->b", Engine: "move", Start: sec(10), End: sec(11), Attempt: 1},    // move step
		{Name: "b/op_java", Engine: "Java", Start: sec(11), End: sec(12), Attempt: 1, Failed: true},
		{Name: "b/op_java", Engine: "Java", Start: sec(14), End: sec(30), Attempt: 2},        // retried
		{Name: "b/op_java", Engine: "Java", Start: sec(20), End: sec(25), Speculative: true}, // backup copy
		{Name: "b/op_java", Engine: "Spark", Start: sec(30), End: sec(40), Attempt: 1},       // other engine
		{Name: "c/op_spark", Engine: "Spark", Start: sec(40), End: sec(50), Attempt: 1},      // not planned
		{Name: "a/op_spark", Engine: "Spark", Start: sec(50), End: sec(54)},                  // Attempt 0 = 1
	}
	got := estErrors(plan, log)
	want := []float64{0.25, 1.5}
	if len(got) != len(want) {
		t.Fatalf("estErrors = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("estErrors[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if estErrors(nil, log) != nil {
		t.Errorf("a run without a plan paired steps")
	}
}

func TestObserveSpansPairing(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	var o observeSpans

	o.finished("x", ms(0))
	o.observed("x", ms(3)) // 3 ms: finish → callback

	o.finished("y", ms(10)) // checkpoint-seeded attempt: never observed
	o.finished("y", ms(20))
	o.observed("y", ms(21)) // 1 ms: pairs with the latest finish

	o.failed(ms(30))
	o.observed("z", ms(32)) // 2 ms: a failed attempt with an engine verdict

	o.finished("w", ms(40)) // stale finish ...
	o.failed(ms(50))        // ... loses to the later failure
	o.observed("w", ms(54)) // 4 ms, and both openings are consumed
	o.observed("w", ms(60)) // nothing left to pair with

	o.failed(ms(70)) // a retryable failure is never observed ...
	o.finished("v", ms(80))
	o.observed("v", ms(85)) // ... so the later finish wins: 5 ms

	want := []time.Duration{3, 1, 2, 4, 5}
	if len(o.spans) != len(want) {
		t.Fatalf("spans = %v, want %v ms", o.spans, want)
	}
	for i, w := range want {
		if o.spans[i] != w*time.Millisecond {
			t.Errorf("span %d = %v, want %v", i, o.spans[i], w*time.Millisecond)
		}
	}
	if o.total() != 15*time.Millisecond {
		t.Errorf("total = %v, want 15ms", o.total())
	}
}

func TestQuarterAndWindowCosts(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var done []time.Time
	for _, m := range []int{1, 2, 3, 4, 5, 6, 10, 14} {
		done = append(done, t0.Add(time.Duration(m)*time.Millisecond))
	}
	head, tail := quarterCosts(t0, done)
	if head != 1 || tail != 4 {
		t.Errorf("quarterCosts = (%v, %v), want (1, 4)", head, tail)
	}
	win := windowMs(t0, done, 4)
	want := []float64{1, 1, 1, 4}
	if len(win) != len(want) {
		t.Fatalf("windowMs = %v, want %v", win, want)
	}
	for i := range want {
		if win[i] != want[i] {
			t.Errorf("windowMs = %v, want %v", win, want)
		}
	}
	if got := windowMs(t0, done[:2], 4); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Errorf("windowMs over fewer completions than windows = %v, want [1 1]", got)
	}
}

func TestSpreadIsStratified(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		vals := spread(rand.New(rand.NewSource(seed)), 10, 1e3, 1e5)
		seen := make([]bool, 10)
		for _, v := range vals {
			slice := int(math.Log(float64(v)/1e3) / math.Log(100) * 10)
			if slice < 0 || slice >= 10 || seen[slice] {
				t.Fatalf("seed %d: %v does not hold one value per slice", seed, vals)
			}
			seen[slice] = true
		}
	}
}

package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	ires "github.com/asap-project/ires"
)

// submission is one workflow of an execution workload: submitted before the
// Drain (at 0) or by a virtual-clock event at a later virtual time.
type submission struct {
	at   time.Duration
	wf   *ires.Workflow
	opts ires.SubmitOptions
}

// execInstance drives the Submit→Drain path shared by batch-refine and
// churn. Completion is observed from outside through each run handle's Done
// channel, so the untraced run installs no tracer and no observer.
type execInstance struct {
	p    *ires.Platform
	subs []submission
	// mustFire requires every recovery mechanism to have fired: preemption,
	// retry, checkpoint restore, straggler speculation, container loss and
	// OOM kill.
	mustFire bool

	mu     sync.Mutex
	runs   map[string]submitted // by run id
	stamps []time.Time
	wg     sync.WaitGroup
}

// submitted is a run handle with the workflow it runs.
type submitted struct {
	r  *ires.Run
	wf *ires.Workflow
}

func (e *execInstance) submit(s submission) {
	r := e.p.SubmitWith(s.wf, s.opts)
	e.mu.Lock()
	if e.runs == nil {
		e.runs = make(map[string]submitted)
	}
	e.runs[r.ID()] = submitted{r: r, wf: s.wf}
	e.mu.Unlock()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		<-r.Done()
		at := time.Now()
		e.mu.Lock()
		e.stamps = append(e.stamps, at)
		e.mu.Unlock()
	}()
}

// run is the timed phase: submit everything, Drain, and collect the wall
// stamp of every run's completion.
func (e *execInstance) run() (*phase, error) {
	t0 := time.Now()
	for _, s := range e.subs {
		if s.at == 0 {
			e.submit(s)
			continue
		}
		e.p.Clock.Schedule(s.at, func(time.Duration) { e.submit(s) })
	}
	e.p.Drain()
	end := time.Now()
	e.mu.Lock()
	for id, x := range e.runs {
		select {
		case <-x.r.Done():
		default:
			e.mu.Unlock()
			return nil, fmt.Errorf("run %s is not terminal after Drain", id)
		}
	}
	e.mu.Unlock()
	e.wg.Wait()
	e.mu.Lock()
	stamps := append([]time.Time(nil), e.stamps...)
	e.mu.Unlock()
	sort.Slice(stamps, func(i, j int) bool { return stamps[i].Before(stamps[j]) })
	ph := &phase{ops: len(e.subs), t0: t0, end: end, opMs: windowMs(t0, stamps, 20)}
	ph.headMs, ph.tailMs = quarterCosts(t0, stamps)
	return ph, nil
}

// check verifies the outputs after the timed phase and fills in the
// virtual-time outcome: every submission ran and succeeded, the cluster
// invariants hold with no container left live, every run's plan
// (or, for a run resumed after preemption, its step log) covers every
// operator its target needs, and on churn every recovery mechanism fired.
func (e *execInstance) check(ph *phase) error {
	if len(e.runs) != len(e.subs) {
		return fmt.Errorf("%d of %d workflows were submitted before Drain returned", len(e.runs), len(e.subs))
	}
	if err := e.p.Cluster.CheckInvariants(); err != nil {
		return fmt.Errorf("cluster invariants: %w", err)
	}
	if n := e.p.Cluster.LiveContainers(); n != 0 {
		return fmt.Errorf("%d containers still live after Drain", n)
	}
	snaps := e.p.Runs()
	if len(snaps) != len(e.subs) {
		return fmt.Errorf("platform lists %d runs, want %d", len(snaps), len(e.subs))
	}
	fp := sha256.New()
	var fired struct{ preempts, retries, restores, specs, lost int }
	first, last := snaps[0].SubmittedSec, 0.0
	for _, s := range snaps {
		x, ok := e.runs[s.ID]
		if !ok {
			return fmt.Errorf("run %s has no handle", s.ID)
		}
		// run checked that every handle is done, so Wait returns at once.
		plan, res, werr := x.r.Wait()
		if s.Status != "succeeded" {
			return fmt.Errorf("run %s (%s) ended %s: %v", s.ID, s.Workflow, s.Status, werr)
		}
		if res == nil {
			return fmt.Errorf("run %s succeeded without a result", s.ID)
		}
		if err := covers(x.wf, plan, res); err != nil {
			return fmt.Errorf("run %s: %w", s.ID, err)
		}
		first = min(first, s.SubmittedSec)
		last = max(last, s.FinishedSec)
		ph.runVs = append(ph.runVs, s.FinishedSec-s.SubmittedSec)
		fired.preempts += s.Preemptions
		fired.retries += res.Retries
		fired.restores += res.CheckpointRestores
		fired.specs += res.SpeculativeLaunches
		fired.lost += res.ContainersLost
		fmt.Fprintf(fp, "%s %s %.9g %.9g %d\n%s", s.ID, s.Workflow, s.SubmittedSec, s.FinishedSec, s.Preemptions, plan.Describe())
		ph.estErr = append(ph.estErr, estErrors(plan, res.StepLog)...)
	}
	if e.mustFire {
		if fired.preempts == 0 || fired.retries == 0 || fired.restores == 0 || fired.specs == 0 ||
			fired.lost == 0 || e.p.FaultStats().OOMKills == 0 {
			return fmt.Errorf("a recovery mechanism never fired: %+v, OOM kills %d", fired, e.p.FaultStats().OOMKills)
		}
	}
	ph.makespanVs = last - first
	ph.fingerprint = fmt.Sprintf("%x", fp.Sum(nil))
	return nil
}

// needed returns the operators the workflow's target depends on, stopping
// at the datasets in done (already materialized): the operators a plan
// must cover.
func needed(wf *ires.Workflow, done map[string]bool) []string {
	seen := map[string]bool{}
	var ops []string
	var visit func(ds string)
	visit = func(ds string) {
		n, ok := wf.Node(ds)
		if !ok || seen[ds] || done[ds] {
			return
		}
		seen[ds] = true
		for _, op := range n.Inputs {
			if seen[op.Name] {
				continue
			}
			seen[op.Name] = true
			ops = append(ops, op.Name)
			for _, in := range op.Inputs {
				visit(in.Name)
			}
		}
	}
	visit(wf.Target)
	return ops
}

// covers checks that every operator the target needs has a step in plan or
// a successful entry in the step log (a run resumed from its done set keeps
// only the final replan, which omits operators finished before it).
func covers(wf *ires.Workflow, plan *ires.Plan, res *ires.ExecutionResult) error {
	if plan == nil {
		return fmt.Errorf("no plan")
	}
	for _, op := range needed(wf, nil) {
		if _, ok := plan.StepFor(op); ok {
			continue
		}
		found := false
		for _, x := range res.StepLog {
			if !x.Failed && strings.HasPrefix(x.Name, op+"/") {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("operator %s is neither planned nor executed", op)
		}
	}
	return nil
}

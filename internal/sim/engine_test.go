package sim

import (
	"testing"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
)

// twoMachineCost is a CostFunc over two machines (speeds 1 and 2) where
// every job has unit size: c_{0,j} = 1, c_{1,j} = 1/2.
func twoMachineCost(machine, jobID int) (exact.Q, bool) {
	if machine == 0 {
		return exact.Int(1), true
	}
	return exact.New(1, 2), true
}

func TestEngineOpenWorldArrivals(t *testing.T) {
	// The engine accepts jobs the closed-world Run never could: arrivals
	// decided upon mid-flight, with flow origins before the current time.
	e := NewEngine(2, twoMachineCost, NewSRPT())
	if err := e.Add(0, q(0, 1), q(1, 1), q(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Decide(); err != nil {
		t.Fatal(err)
	}
	next, ok := e.NextEvent()
	if !ok || next.Cmp(q(1, 2)) != 0 {
		t.Fatalf("next event = %v, want 1/2 (job on the fast machine)", next)
	}
	// Advance only half way to the completion, then admit a second job
	// whose origin (release) is in the past.
	if _, err := e.AdvanceTo(q(1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(7, q(1, 8), q(1, 1), q(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Decide(); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 2 {
		t.Fatalf("live = %d, want 2", e.Live())
	}
	// Drive to quiescence.
	for e.CompletedCount() < 2 {
		next, ok := e.NextEvent()
		if !ok {
			t.Fatal("engine stalled")
		}
		if _, err := e.AdvanceTo(next); err != nil {
			t.Fatal(err)
		}
		if err := e.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	if c, ok := e.Completion(7); !ok || c.Sign() <= 0 {
		t.Fatalf("completion of job 7 = %v", c)
	}
	if rem, _ := e.Remaining(0); rem.Sign() != 0 {
		t.Fatalf("job 0 remaining = %v, want 0", rem)
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	e := NewEngine(2, twoMachineCost, NewSRPT())
	if err := e.Add(0, q(0, 1), q(1, 1), exact.Q{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(0, q(0, 1), q(1, 1), exact.Q{}); err == nil {
		t.Error("duplicate id must error")
	}
	if err := e.Add(1, q(0, 1), q(0, 1), exact.Q{}); err == nil {
		t.Error("zero weight must error")
	}
	if err := e.Add(2, q(-1, 1), q(1, 1), exact.Q{}); err == nil {
		t.Error("negative release must error")
	}
	if err := e.Decide(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AdvanceTo(q(-1, 1)); err == nil {
		t.Error("backwards time must error")
	}
}

func TestEngineRejectsIneligibleAssignment(t *testing.T) {
	// Machine 1 is ineligible for every job.
	cost := func(machine, jobID int) (exact.Q, bool) {
		if machine == 1 {
			return exact.Q{}, false
		}
		return exact.Int(1), true
	}
	e := NewEngine(2, cost, badPolicy{})
	if err := e.Add(0, q(0, 1), q(1, 1), exact.Q{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Decide(); err == nil {
		t.Fatal("ineligible assignment must error")
	}
}

func TestEngineMergesPieces(t *testing.T) {
	// Advancing in many small steps with an unchanged allocation must
	// produce one merged piece, exactly like a single advance.
	e := NewEngine(1, func(machine, jobID int) (exact.Q, bool) { return exact.Int(1), true }, NewFCFS())
	if err := e.Add(0, q(0, 1), q(1, 1), exact.Q{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Decide(); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 4; k++ {
		if _, err := e.AdvanceTo(q(k, 4)); err != nil {
			t.Fatal(err)
		}
	}
	sched := e.Schedule()
	if len(sched.Pieces) != 1 {
		t.Fatalf("pieces = %d, want 1 merged piece", len(sched.Pieces))
	}
	p := &sched.Pieces[0]
	if p.Start.Sign() != 0 || p.End.Cmp(r(1, 1)) != 0 || p.Fraction.Cmp(r(1, 1)) != 0 {
		t.Fatalf("merged piece = [%v,%v) frac %v", p.Start, p.End, p.Fraction)
	}
	if e.CompletedCount() != 1 {
		t.Fatalf("completed = %d", e.CompletedCount())
	}
}

func TestEngineTraceValidates(t *testing.T) {
	// An engine-driven open-world run over a real instance produces a
	// trace the exact validator accepts.
	jobs := []model.Job{
		{Name: "a", Release: r(0, 1), Weight: r(1, 1), Size: r(3, 1)},
		{Name: "b", Release: r(1, 1), Weight: r(2, 1), Size: r(2, 1)},
		{Name: "c", Release: r(1, 1), Weight: r(1, 1), Size: r(4, 1)},
	}
	machines := []model.Machine{
		{Name: "m0", InverseSpeed: r(1, 1)},
		{Name: "m1", InverseSpeed: r(1, 2)},
	}
	inst, err := model.NewInstance(jobs, machines)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(inst.M(), instanceCost(inst), NewOnlineMWFLazy())
	nextRelease := 0
	for e.CompletedCount() < inst.N() {
		for nextRelease < inst.N() && exact.FromRat(inst.Jobs[nextRelease].Release).Cmp(e.Now()) <= 0 {
			job := &inst.Jobs[nextRelease]
			if err := e.Add(nextRelease, exact.FromRat(job.Release), exact.FromRat(job.Weight), exact.FromRat(job.Size)); err != nil {
				t.Fatal(err)
			}
			nextRelease++
		}
		if err := e.Decide(); err != nil {
			t.Fatal(err)
		}
		next, ok := e.NextEvent()
		if nextRelease < inst.N() {
			rel := exact.FromRat(inst.Jobs[nextRelease].Release)
			if !ok || rel.Cmp(next) < 0 {
				next, ok = rel, true
			}
		}
		if !ok {
			t.Fatal("stalled")
		}
		if _, err := e.AdvanceTo(next); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Schedule().Validate(inst, schedule.Divisible, nil); err != nil {
		t.Fatalf("engine trace invalid: %v", err)
	}
}

func TestOnlineMWFLazyCacheCounters(t *testing.T) {
	// Every lazy decision with live jobs is either an exact solve or a
	// plan-cache hit, and both kinds occur on a workload with arrivals.
	jobs := []model.Job{
		{Name: "a", Release: r(0, 1), Weight: r(1, 1), Size: r(4, 1)},
		{Name: "b", Release: r(0, 1), Weight: r(4, 1), Size: r(4, 1)},
		{Name: "c", Release: r(2, 1), Weight: r(2, 1), Size: r(2, 1)},
	}
	machines := []model.Machine{
		{Name: "m0", InverseSpeed: r(1, 1)},
		{Name: "m1", InverseSpeed: r(1, 2)},
	}
	inst, err := model.NewInstance(jobs, machines)
	if err != nil {
		t.Fatal(err)
	}
	p := NewOnlineMWFLazy()
	res, err := Run(inst, p)
	if err != nil {
		t.Fatalf("%v (inner: %v)", err, p.Err())
	}
	if p.Solves() == 0 || p.Solves() > inst.N() {
		t.Errorf("solves = %d, want in [1, %d]", p.Solves(), inst.N())
	}
	if p.CacheHits() == 0 {
		t.Error("expected plan-cache hits between arrivals")
	}
	if p.Solves()+p.CacheHits() > res.Decisions {
		t.Errorf("solves %d + hits %d > decisions %d", p.Solves(), p.CacheHits(), res.Decisions)
	}
}

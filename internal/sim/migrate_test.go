package sim

import (
	"math/big"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/model"
)

// TestEngineRemoveMigratesExactState drives a job halfway on one engine,
// extracts it with Remove, re-admits it on a second engine with AddPartial,
// and checks that no work is lost or duplicated: the executed fractions of
// the two traces sum to exactly 1 and the donor trace is left intact.
func TestEngineRemoveMigratesExactState(t *testing.T) {
	donor := NewEngine(2, twoMachineCost, NewFCFS())
	if err := donor.Add(0, q(0, 1), q(1, 1), q(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := donor.Add(1, q(0, 1), q(2, 1), q(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := donor.Decide(); err != nil {
		t.Fatal(err)
	}
	// FCFS: job 0 on machine 0 (c=1), job 1 on machine 1 (c=1/2).
	if _, err := donor.AdvanceTo(q(1, 4)); err != nil {
		t.Fatal(err)
	}

	rj, err := donor.Remove(0)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Remaining.Cmp(q(3, 4)) != 0 {
		t.Errorf("remaining = %v, want 3/4", rj.Remaining)
	}
	if rj.Release.Sign() != 0 || rj.Weight.Cmp(q(1, 1)) != 0 || rj.Size.Cmp(q(1, 1)) != 0 {
		t.Errorf("removed state = release %v weight %v size %v, want 0/1/1", rj.Release, rj.Weight, rj.Size)
	}
	if donor.Live() != 1 {
		t.Errorf("live after removal = %d, want 1", donor.Live())
	}
	if donor.Migrations() != 1 {
		t.Errorf("migrations = %d, want 1", donor.Migrations())
	}
	if _, ok := donor.Remaining(0); ok {
		t.Error("removed job still answers Remaining")
	}

	// The donor keeps executing: job 1 finishes, and the removed job's piece
	// stays in the trace but never grows past the removal time.
	for donor.CompletedCount() < 1 {
		next, ok := donor.NextEvent()
		if !ok {
			t.Fatal("donor stalled")
		}
		if _, err := donor.AdvanceTo(next); err != nil {
			t.Fatal(err)
		}
		if err := donor.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	donorFrac := new(big.Rat)
	for _, pc := range donor.Schedule().Pieces {
		if pc.Job == 0 {
			donorFrac.Add(donorFrac, pc.Fraction)
			if pc.End.Cmp(r(1, 4)) > 0 {
				t.Errorf("donor executed removed job past removal time: piece ends at %v", pc.End.RatString())
			}
		}
	}
	if donorFrac.Cmp(r(1, 4)) != 0 {
		t.Errorf("donor trace holds fraction %v of the removed job, want 1/4", donorFrac.RatString())
	}

	// Re-admit on a second engine under a new local ID; the flow origin and
	// the exact remaining fraction carry over.
	thief := NewEngine(2, twoMachineCost, NewFCFS())
	if err := thief.AddPartial(5, rj.Release, rj.Weight, rj.Size, rj.Remaining); err != nil {
		t.Fatal(err)
	}
	if rem, _ := thief.Remaining(5); rem.Cmp(q(3, 4)) != 0 {
		t.Errorf("thief remaining = %v, want 3/4", rem)
	}
	if err := thief.Decide(); err != nil {
		t.Fatal(err)
	}
	for thief.CompletedCount() < 1 {
		next, ok := thief.NextEvent()
		if !ok {
			t.Fatal("thief stalled")
		}
		if _, err := thief.AdvanceTo(next); err != nil {
			t.Fatal(err)
		}
		if err := thief.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	thiefFrac := new(big.Rat)
	for _, pc := range thief.Schedule().Pieces {
		if pc.Job == 5 {
			thiefFrac.Add(thiefFrac, pc.Fraction)
		}
	}
	if total := new(big.Rat).Add(donorFrac, thiefFrac); total.Cmp(r(1, 1)) != 0 {
		t.Errorf("migrated job's total executed fraction = %v, want exactly 1", total.RatString())
	}
	// FCFS runs the migrated job on machine 0 (c=1): 3/4 of work from t=0.
	if c, ok := thief.Completion(5); !ok || c.Cmp(q(3, 4)) != 0 {
		t.Errorf("thief completion = %v, want 3/4", c)
	}
}

func TestEngineRemoveRejectsUnknownAndCompleted(t *testing.T) {
	e := NewEngine(2, twoMachineCost, NewFCFS())
	if _, err := e.Remove(3); err == nil {
		t.Error("removing an unknown job must error")
	}
	if err := e.Add(0, q(0, 1), q(1, 1), exact.Q{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Decide(); err != nil {
		t.Fatal(err)
	}
	next, _ := e.NextEvent()
	if _, err := e.AdvanceTo(next); err != nil {
		t.Fatal(err)
	}
	if e.CompletedCount() != 1 {
		t.Fatal("job did not complete")
	}
	if _, err := e.Remove(0); err == nil {
		t.Error("removing a completed job must error")
	}
}

func TestAddPartialRejectsBadRemaining(t *testing.T) {
	e := NewEngine(2, twoMachineCost, NewFCFS())
	for _, rem := range []exact.Q{q(-1, 2), q(3, 2)} {
		if err := e.AddPartial(0, q(0, 1), q(1, 1), exact.Q{}, rem); err == nil {
			t.Errorf("remaining %v must be rejected", rem)
		}
	}
	if err := e.AddPartial(0, q(0, 1), q(1, 1), exact.Q{}, q(1, 1)); err != nil {
		t.Errorf("remaining 1 must be accepted: %v", err)
	}
	// Zero reads as a whole job, as it does in the records that carry it.
	if err := e.AddPartial(1, q(0, 1), q(1, 1), exact.Q{}, exact.Q{}); err != nil {
		t.Errorf("remaining 0 must read as 1: %v", err)
	}
	if rem, _ := e.Remaining(1); rem.Cmp(q(1, 1)) != 0 {
		t.Errorf("remaining 0 admitted as %v, want 1", rem)
	}
}

// TestRemoveInvalidatesPlanCache pins the donor-side cache behavior of the
// steal protocol: after a live job is extracted with Remove, the lazy
// OnlineMWF must not follow any stale plan piece for the vanished job — the
// next decision is a fresh solve, never a cache hit, and the removed ID
// never reappears in an allocation.
func TestRemoveInvalidatesPlanCache(t *testing.T) {
	jobs := []model.Job{
		{Name: "a", Release: r(0, 1), Weight: r(1, 1), Size: r(4, 1)},
		{Name: "b", Release: r(0, 1), Weight: r(3, 1), Size: r(6, 1)},
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
	e := NewEngine(inst.M(), instanceCost(inst), p)
	for j := 0; j < inst.N(); j++ {
		if err := e.Add(j, exact.FromRat(inst.Jobs[j].Release), exact.FromRat(inst.Jobs[j].Weight), exact.FromRat(inst.Jobs[j].Size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Decide(); err != nil {
		t.Fatalf("%v (inner: %v)", err, p.Err())
	}
	if p.Solves() != 1 {
		t.Fatalf("solves = %d, want 1", p.Solves())
	}
	// Advance strictly between events so the cached plan is mid-flight.
	next, ok := e.NextEvent()
	if !ok {
		t.Fatal("no upcoming event")
	}
	mid := next.Mul(q(1, 2))
	if _, err := e.AdvanceTo(mid); err != nil {
		t.Fatal(err)
	}

	if _, err := e.Remove(1); err != nil {
		t.Fatal(err)
	}
	if p.cache.Plan != nil || p.cache.SolveRem != nil {
		t.Error("Remove left a cached plan behind")
	}
	hitsBefore := p.CacheHits()
	if err := e.Decide(); err != nil {
		t.Fatalf("decide after removal: %v (inner: %v)", err, p.Err())
	}
	if p.Solves() != 2 {
		t.Errorf("solves after removal = %d, want 2 (a fresh solve, not a stale plan)", p.Solves())
	}
	if p.CacheHits() != hitsBefore {
		t.Errorf("cache hits grew across a removal: %d -> %d", hitsBefore, p.CacheHits())
	}
	for i, id := range e.alloc.MachineJob {
		if id == 1 {
			t.Errorf("machine %d still allocated to the removed job", i)
		}
	}
	// The remaining job completes under the re-solved plan.
	for e.CompletedCount() < 1 {
		next, ok := e.NextEvent()
		if !ok {
			t.Fatalf("engine stalled (inner: %v)", p.Err())
		}
		if _, err := e.AdvanceTo(next); err != nil {
			t.Fatal(err)
		}
		if err := e.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	for _, pc := range e.Schedule().Pieces {
		if pc.Job == 1 && pc.End.Cmp(mid.Rat()) > 0 {
			t.Errorf("removed job executed past removal time: piece ends at %v", pc.End.RatString())
		}
	}
}

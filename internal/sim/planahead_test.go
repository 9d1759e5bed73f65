package sim

import (
	"slices"
	"testing"

	"divflow/internal/exact"
)

// TestPlanAheadContract holds OnlineMWF.PlanAhead to what deadline admission
// reads it for. While the lazy plan predicts the engine, at event times and
// between them, the view answers: no piece starts before now, the pieces
// process exactly each live job's remaining fraction, and reading the view
// counts no cache hit. It refuses an unknown live job, a perturbed remaining
// fraction, an invalidated plan, and the eager policy, which keeps no
// fingerprint to check a plan against.
func TestPlanAheadContract(t *testing.T) {
	sizes := []exact.Q{q(3, 1), q(5, 2), q(4, 1), q(1, 1), q(7, 2)}
	inverse := []exact.Q{q(1, 1), q(1, 2), q(2, 1)}
	cost := func(i, id int) (exact.Q, bool) {
		if id < 0 || id >= len(sizes) || (i == 2 && id%2 == 1) {
			return exact.Q{}, false
		}
		return sizes[id].Mul(inverse[i]), true
	}
	arrivals := []exact.Q{q(0, 1), q(0, 1), q(1, 2), q(2, 1), q(7, 3)}

	// run drives the five arrivals to completion and calls check at every
	// event (before the decision) and half way to the next one.
	run := func(pol *OnlineMWF, check func(s *Snapshot)) {
		t.Helper()
		e := NewEngine(len(inverse), cost, pol)
		admitted := 0
		for admitted < len(sizes) || e.Live() > 0 {
			for admitted < len(sizes) && arrivals[admitted].Cmp(e.Now()) <= 0 {
				if err := e.Add(admitted, arrivals[admitted], q(int64(1+admitted%3), 1), sizes[admitted]); err != nil {
					t.Fatal(err)
				}
				admitted++
			}
			if err := e.Decide(); err != nil {
				t.Fatal(err)
			}
			next, ok := e.NextEvent()
			if admitted < len(sizes) && (!ok || arrivals[admitted].Cmp(next) < 0) {
				next, ok = arrivals[admitted], true
			}
			if !ok {
				t.Fatal("engine stalled with work left")
			}
			if _, err := e.AdvanceTo(e.Now().Add(next).Quo(q(2, 1))); err != nil {
				t.Fatal(err)
			}
			check(e.Snapshot())
			if _, err := e.AdvanceTo(next); err != nil {
				t.Fatal(err)
			}
			check(e.Snapshot())
		}
	}

	lazy := NewOnlineMWFLazy()
	answered := 0
	run(lazy, func(s *Snapshot) {
		hits := lazy.CacheHits()
		ahead, ok := lazy.PlanAhead(s)
		if lazy.CacheHits() != hits {
			t.Fatalf("t=%v: reading the view counted %d cache hits", s.Now, lazy.CacheHits()-hits)
		}
		if !ok {
			t.Fatalf("t=%v: view refused the plan the engine is following", s.Now)
		}
		answered++
		done := map[int]exact.Q{}
		for _, piece := range ahead {
			if piece.Start.Cmp(s.Now) < 0 || piece.End.Cmp(piece.Start) <= 0 {
				t.Fatalf("t=%v: piece %+v is not inside [now, ∞)", s.Now, piece)
			}
			c, ok := s.Cost(piece.Machine, piece.Job)
			if !ok {
				t.Fatalf("t=%v: piece %+v on an ineligible machine", s.Now, piece)
			}
			done[piece.Job] = done[piece.Job].Add(piece.End.Sub(piece.Start).Quo(c))
		}
		for _, jv := range s.Jobs {
			if done[jv.ID].Cmp(jv.Remaining) != 0 {
				t.Fatalf("t=%v: the view processes %v of job %d, %v remains", s.Now, done[jv.ID], jv.ID, jv.Remaining)
			}
			delete(done, jv.ID)
		}
		if len(done) != 0 {
			t.Fatalf("t=%v: the view processes jobs that are not live: %v", s.Now, done)
		}

		if len(s.Jobs) == 0 {
			return
		}
		unknown := *s
		unknown.Jobs = append(slices.Clone(s.Jobs), JobState{ID: 99, Release: s.Now, Weight: q(1, 1), Remaining: q(1, 1)})
		if _, ok := lazy.PlanAhead(&unknown); ok {
			t.Fatalf("t=%v: view answered with an unknown job live", s.Now)
		}
		perturbed := *s
		perturbed.Jobs = slices.Clone(s.Jobs)
		perturbed.Jobs[0].Remaining = perturbed.Jobs[0].Remaining.Quo(q(2, 1))
		if _, ok := lazy.PlanAhead(&perturbed); ok {
			t.Fatalf("t=%v: view answered with job %d's remaining fraction halved", s.Now, s.Jobs[0].ID)
		}
	})
	if answered < 10 {
		t.Fatalf("the view answered %d times, want every event and mid-event point", answered)
	}

	// After InvalidatePlan the view refuses until the next solve.
	e := NewEngine(len(inverse), cost, lazy)
	lazy.Reset()
	for id := 0; id < 2; id++ {
		if err := e.Add(id, q(0, 1), q(1, 1), sizes[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Decide(); err != nil {
		t.Fatal(err)
	}
	if _, ok := lazy.PlanAhead(e.Snapshot()); !ok {
		t.Fatal("view refused right after a solve")
	}
	lazy.InvalidatePlan()
	if _, ok := lazy.PlanAhead(e.Snapshot()); ok {
		t.Fatal("view answered after InvalidatePlan")
	}

	eager := NewOnlineMWF()
	run(eager, func(s *Snapshot) {
		if _, ok := eager.PlanAhead(s); ok {
			t.Fatalf("t=%v: the eager policy's view answered without a fingerprint", s.Now)
		}
	})
}

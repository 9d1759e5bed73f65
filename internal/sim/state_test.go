package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/workload"
)

// TestEngineStateRoundTrip pins the durability boundary: export mid-run,
// restore into a fresh engine, and both the exported documents and the
// continued executions must agree bit-for-bit.
func TestEngineStateRoundTrip(t *testing.T) {
	run := func() *Engine {
		e := NewEngine(2, twoMachineCost, NewOnlineMWFLazy())
		if err := e.Add(0, q(0, 1), q(1, 1), q(1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := e.Add(3, q(0, 1), q(2, 1), q(1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := e.Decide(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.AdvanceTo(q(1, 4)); err != nil {
			t.Fatal(err)
		}
		if err := e.Add(5, q(1, 8), q(1, 2), q(1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := e.Decide(); err != nil {
			t.Fatal(err)
		}
		next, _ := e.NextEvent()
		if _, err := e.AdvanceTo(next); err != nil {
			t.Fatal(err)
		}
		return e
	}
	orig := run()
	st := orig.ExportState()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back EngineState
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	pol := NewOnlineMWFLazy()
	restored := NewEngine(2, twoMachineCost, pol)
	if err := restored.RestoreState(&back); err != nil {
		t.Fatal(err)
	}
	planBlob, err := json.Marshal(orig.Policy().(*OnlineMWF).ExportPlanState())
	if err != nil {
		t.Fatal(err)
	}
	var plan MWFPlanState
	if err := json.Unmarshal(planBlob, &plan); err != nil {
		t.Fatal(err)
	}
	pol.RestorePlanState(&plan)

	if !reflect.DeepEqual(orig.ExportState(), restored.ExportState()) {
		t.Fatalf("restored export differs:\norig: %s\nrest: %s",
			mustJSON(orig.ExportState()), mustJSON(restored.ExportState()))
	}

	// Drive both engines to quiescence in lockstep; every event time,
	// completion, and trace piece must match exactly.
	for {
		if err := orig.Decide(); err != nil {
			t.Fatal(err)
		}
		if err := restored.Decide(); err != nil {
			t.Fatal(err)
		}
		a, aok := orig.NextEvent()
		b, bok := restored.NextEvent()
		if aok != bok {
			t.Fatalf("next-event divergence: %v vs %v", aok, bok)
		}
		if !aok {
			break
		}
		if a.Cmp(b) != 0 {
			t.Fatalf("next-event times differ: %v vs %v", a, b)
		}
		if _, err := orig.AdvanceTo(a); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.AdvanceTo(b); err != nil {
			t.Fatal(err)
		}
	}
	if orig.CompletedCount() != 3 || restored.CompletedCount() != 3 {
		t.Fatalf("completions: %d vs %d, want 3", orig.CompletedCount(), restored.CompletedCount())
	}
	ea, eb := orig.ExportState(), restored.ExportState()
	// Solver decision counts can differ only through the plan cache; with the
	// plan restored they must not.
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("final states differ:\norig: %s\nrest: %s", mustJSON(ea), mustJSON(eb))
	}
}

// runOn is Run's loop from wherever e stands — next is the first job not yet
// revealed — until every job completes; before, when non-nil, is called ahead
// of every decision.
func runOn(t *testing.T, inst *model.Instance, e *Engine, next int, before func(next int)) {
	t.Helper()
	for n := inst.N(); e.CompletedCount() < n; {
		for ; next < n && exact.FromRat(inst.Jobs[next].Release).Cmp(e.Now()) <= 0; next++ {
			job := &inst.Jobs[next]
			if err := e.Add(next, exact.FromRat(job.Release), exact.FromRat(job.Weight), exact.FromRat(job.Size)); err != nil {
				t.Fatal(err)
			}
		}
		if before != nil {
			before(next)
		}
		if err := e.Decide(); err != nil {
			t.Fatal(err)
		}
		at, ok := e.NextEvent()
		if next < n {
			if rel := exact.FromRat(inst.Jobs[next].Release); !ok || rel.Cmp(at) < 0 {
				at, ok = rel, true
			}
		}
		if !ok || at.Cmp(e.Now()) <= 0 {
			t.Fatalf("policy %s stalled at t=%v", e.policy.Name(), e.now)
		}
		if _, err := e.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreAtAnyDecisionKeepsTheTrace is the crash-restore promise at the
// policy's level: what ExportState and ExportPlanState write is everything a
// run depends on. Before every decision of every run, both documents go
// through encoding/json into a fresh engine and a fresh policy, which export
// the very same bytes again and then run on to completion; every piece they
// execute must be the uninterrupted run's. That holds only while a solve is a
// function of the residual alone: state the policy carries from solve to
// solve and no snapshot holds (a warm basis did) picks among equally optimal
// schedules, and the restored run drifts.
func TestRestoreAtAnyDecisionKeepsTheTrace(t *testing.T) {
	viaJSON := func(from, to any) []byte {
		blob, err := json.Marshal(from)
		if err == nil {
			err = json.Unmarshal(blob, to)
		}
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, fresh := range []func() *OnlineMWF{NewOnlineMWF, NewOnlineMWFLazy, NewOnlineMWFPreemptive} {
		diverged, restores := 0, 0
		for seed := int64(0); seed < 60; seed++ {
			cfg := workload.Default()
			cfg.Seed, cfg.Jobs, cfg.MeanInterarrival = seed, 8, 2
			inst := workload.MustGenerate(cfg)

			pol := fresh()
			live := NewEngine(inst.M(), instanceCost(inst), pol)
			var forks []*Engine // forks[k] was restored before decision k
			runOn(t, inst, live, 0, func(next int) {
				var es EngineState
				var ps MWFPlanState
				engineDoc := viaJSON(live.ExportState(), &es)
				planDoc := viaJSON(pol.ExportPlanState(), &ps)
				twin := fresh()
				fork := NewEngine(inst.M(), instanceCost(inst), twin)
				if err := fork.RestoreState(&es); err != nil {
					t.Fatal(err)
				}
				twin.RestorePlanState(&ps)
				if got := mustJSON(fork.ExportState()); got != string(engineDoc) {
					t.Fatalf("%s, seed %d: restored engine re-exports\n%s\nfrom\n%s", pol.Name(), seed, got, engineDoc)
				}
				if got := mustJSON(twin.ExportPlanState()); got != string(planDoc) {
					t.Fatalf("%s, seed %d: restored plan re-exports\n%s\nfrom\n%s", pol.Name(), seed, got, planDoc)
				}
				runOn(t, inst, fork, next, nil)
				forks = append(forks, fork)
			})
			restores += len(forks)
			want := mustJSON(live.ExportState().Pieces)
			for k, fork := range forks {
				if got := mustJSON(fork.ExportState().Pieces); got != want {
					diverged++
					t.Errorf("%s, seed %d: restored before decision %d of %d, the run executes\n%s\nuninterrupted\n%s",
						pol.Name(), seed, k, len(forks), got, want)
					break
				}
			}
		}
		if diverged > 0 {
			t.Errorf("%s: %d of 60 instances have a restore point that changes the trace (%d restores)", fresh().Name(), diverged, restores)
		}
	}
}

// restoreTwin restores the documents, through encoding/json, into a fresh
// engine over m machines and a fresh lazy policy; edit rewrites the plan
// document's JSON object on the way.
func restoreTwin(t *testing.T, m int, cost CostFunc, es *EngineState, ps *MWFPlanState, edit func(doc map[string]json.RawMessage)) (*Engine, *OnlineMWF) {
	t.Helper()
	var est EngineState
	var pst MWFPlanState
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal([]byte(mustJSON(es)), &est); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(mustJSON(ps)), &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	if err := json.Unmarshal([]byte(mustJSON(doc)), &pst); err != nil {
		t.Fatal(err)
	}
	pol := NewOnlineMWFLazy()
	e := NewEngine(m, cost, pol)
	if err := e.RestoreState(&est); err != nil {
		t.Fatal(err)
	}
	pol.RestorePlanState(&pst)
	return e, pol
}

// TestRestoreHalfFingerprintResolves: a plan document that carries only half
// of the fingerprint — solveRem without solveAt, or the reverse — restores as
// no fingerprint, so the next lazy decision re-solves (and PlanAhead declines)
// instead of following the plan from a missing solve time. The whole document
// is the control: there the same decision is a cache hit.
func TestRestoreHalfFingerprintResolves(t *testing.T) {
	e := NewEngine(2, twoMachineCost, NewOnlineMWFLazy())
	for id, w := range []int64{1, 2} {
		if err := e.Add(id, q(0, 1), q(w, 1), q(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Decide(); err != nil {
		t.Fatal(err)
	}
	next, ok := e.NextEvent()
	if !ok {
		t.Fatal("no upcoming event")
	}
	if _, err := e.AdvanceTo(next); err != nil {
		t.Fatal(err)
	}
	es, ps := e.ExportState(), e.Policy().(*OnlineMWF).ExportPlanState()
	if ps.SolveAt == nil || ps.SolveRem == nil {
		t.Fatalf("lazy policy exported no fingerprint: %s", mustJSON(ps))
	}
	for _, tc := range []struct {
		drop        string
		hits, solve int // what the next decision does
	}{
		{"", 1, 0},
		{"solveAt", 0, 1},
		{"solveRem", 0, 1},
	} {
		twin, pol := restoreTwin(t, 2, twoMachineCost, es, ps, func(doc map[string]json.RawMessage) { delete(doc, tc.drop) })
		if _, ok := pol.PlanAhead(twin.Snapshot()); ok != (tc.hits == 1) {
			t.Errorf("without %q: PlanAhead answered %v", tc.drop, ok)
		}
		if err := twin.Decide(); err != nil {
			t.Fatalf("without %q: %v (inner: %v)", tc.drop, err, pol.Err())
		}
		if hits, solves := pol.CacheHits()-ps.CacheHits, pol.Solves()-ps.Solves; hits != tc.hits || solves != tc.solve {
			t.Errorf("without %q: next decision made %d cache hits and %d solves, want %d and %d", tc.drop, hits, solves, tc.hits, tc.solve)
		}
	}
}

// TestRestoreIgnoresKnownKey: plan documents that still carry the dropped
// "known" key (the IDs of the last solve's jobs, exactly solveRem's) restore,
// before any decision, to the uninterrupted run's trace.
func TestRestoreIgnoresKnownKey(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := workload.Default()
		cfg.Seed, cfg.Jobs, cfg.MeanInterarrival = seed, 6, 2
		inst := workload.MustGenerate(cfg)
		live := NewEngine(inst.M(), instanceCost(inst), NewOnlineMWFLazy())
		var forks []*Engine
		runOn(t, inst, live, 0, func(next int) {
			ps := live.Policy().(*OnlineMWF).ExportPlanState()
			known := make([]int, len(ps.SolveRem))
			for k := range ps.SolveRem {
				known[k] = ps.SolveRem[k].ID
			}
			fork, _ := restoreTwin(t, inst.M(), instanceCost(inst), live.ExportState(), ps, func(doc map[string]json.RawMessage) {
				if len(known) > 0 {
					doc["known"] = json.RawMessage(mustJSON(known))
				}
			})
			runOn(t, inst, fork, next, nil)
			forks = append(forks, fork)
		})
		want := mustJSON(live.ExportState().Pieces)
		for k, fork := range forks {
			if got := mustJSON(fork.ExportState().Pieces); got != want {
				t.Fatalf("seed %d: restored before decision %d of %d, the run executes\n%s\nuninterrupted\n%s", seed, k, len(forks), got, want)
			}
		}
	}
}

func TestRestoreStateRejectsBadInput(t *testing.T) {
	e := NewEngine(2, twoMachineCost, NewSRPT())
	if err := e.RestoreState(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	st := &EngineState{Jobs: []JobState{{ID: 1}}}
	if err := e.RestoreState(st); err == nil {
		t.Fatal("job with missing fields accepted")
	}
	// Compact reads the trace in start order, so a state whose pieces are out
	// of it is refused, naming the piece.
	unordered := &EngineState{Now: q(3, 1), Pieces: []PieceState{
		{Machine: 0, Job: 0, Start: q(1, 1), End: q(2, 1), Fraction: q(1, 1)},
		{Machine: 1, Job: 0, Start: q(1, 2), End: q(1, 1), Fraction: q(1, 1)},
	}}
	err := NewEngine(2, twoMachineCost, NewSRPT()).RestoreState(unordered)
	if err == nil || !strings.Contains(err.Error(), "piece 1 starts at 1/2, before piece 0's start 1") {
		t.Fatalf("pieces out of start order: err %v", err)
	}
	if err := e.Add(0, q(0, 1), q(1, 1), exact.Q{}); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreState(&EngineState{}); err == nil {
		t.Fatal("restore into non-fresh engine accepted")
	}
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"divflow/internal/exact"
	"divflow/internal/stats"
)

// This file is the durability boundary of the engine: ExportState captures
// everything an Engine owns as exact, self-contained values (JSON-marshalable:
// an exact.Q writes the usual "p/q" string), and RestoreState rebuilds a fresh
// engine into bit-for-bit the same state. The pair backs divflowd's
// snapshot/restore path.

// JobState is the package's one form of a job: what the engine holds, what a
// policy sees in a Snapshot, what Remove hands back for migration and what an
// EngineState lists. A job is live while Completed is zero and finished
// (retained for the trace window) once it is set; only live jobs appear in a
// Snapshot, so a policy never sees Completed set.
type JobState struct {
	ID        int     `json:"id"`
	Release   exact.Q `json:"release"` // flow origin
	Weight    exact.Q `json:"weight"`
	Size      exact.Q `json:"size,omitzero"` // zero when unsized
	Remaining exact.Q `json:"remaining"`     // fraction still to process
	Completed exact.Q `json:"completed,omitzero"`
}

func (j *JobState) done() bool { return j.Completed.Sign() != 0 }

// PieceState is one executed schedule piece: the engine's trace entry, held
// as it is exported.
type PieceState struct {
	Machine  int     `json:"machine"`
	Job      int     `json:"job"`
	Start    exact.Q `json:"start"`
	End      exact.Q `json:"end"`
	Fraction exact.Q `json:"fraction"`
}

// EngineState is the full exported state of an Engine.
type EngineState struct {
	Now    exact.Q      `json:"now"`
	Jobs   []JobState   `json:"jobs,omitempty"`
	Pieces []PieceState `json:"pieces,omitempty"`
	// Alloc is the installed allocation (machine -> job ID, -1 idle), nil
	// when no allocation has been decided yet.
	Alloc      []int   `json:"alloc,omitempty"`
	Review     exact.Q `json:"review,omitzero"`
	HaveAlloc  bool    `json:"haveAlloc,omitempty"`
	Decisions  int     `json:"decisions,omitempty"`
	Completed  int     `json:"completed,omitempty"`
	Migrations int     `json:"migrations,omitempty"`
}

// ExportState copies the engine's state. Safe to marshal or hold after the
// engine moves on; jobs are listed in ascending ID order so equal states
// export equal documents.
func (e *Engine) ExportState() *EngineState {
	st := &EngineState{
		Now:        e.now,
		Decisions:  e.decisions,
		Completed:  e.completed,
		Migrations: e.migrations,
		HaveAlloc:  e.haveAlloc,
	}
	for _, j := range e.jobs {
		st.Jobs = append(st.Jobs, *j)
	}
	slices.SortFunc(st.Jobs, func(a, b JobState) int { return cmp.Compare(a.ID, b.ID) })
	st.Pieces = append([]PieceState(nil), e.pieces...)
	if e.haveAlloc {
		st.Alloc = append([]int(nil), e.alloc.MachineJob...)
		st.Review = e.alloc.Review
	}
	return st
}

// RestoreState rebuilds the exported state into this engine, which must be
// fresh (no jobs, time zero). The live order, the queue of finished jobs (by
// completion time, then ID), the per-machine last-piece index, and the
// installed allocation are derived exactly as the original engine had them;
// the policy's own cached state (if any) is restored separately. Pieces must
// come in nondecreasing start order, the order AdvanceTo writes them in and
// ExportState keeps.
func (e *Engine) RestoreState(st *EngineState) error {
	if len(e.jobs) != 0 || e.now.Sign() != 0 || len(e.pieces) != 0 {
		return fmt.Errorf("sim: restore into a non-fresh engine")
	}
	if st == nil {
		return fmt.Errorf("sim: restore: nil state")
	}
	if st.Now.Sign() < 0 {
		return fmt.Errorf("sim: restore: bad now")
	}
	for _, js := range st.Jobs {
		if js.Release.Sign() < 0 || js.Weight.Sign() <= 0 || js.Remaining.Sign() < 0 {
			return fmt.Errorf("sim: restore: job %d missing fields", js.ID)
		}
		if _, dup := e.jobs[js.ID]; dup {
			return fmt.Errorf("sim: restore: duplicate job %d", js.ID)
		}
		e.jobs[js.ID] = &js
		if js.done() {
			e.finished = append(e.finished, js.ID)
		} else {
			e.order = append(e.order, js.ID)
		}
	}
	sort.Slice(e.order, func(a, b int) bool { return e.before(e.order[a], e.order[b]) })
	slices.SortFunc(e.finished, func(a, b int) int {
		if c := e.jobs[a].Completed.Cmp(e.jobs[b].Completed); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for k := range st.Pieces {
		ps := &st.Pieces[k]
		if ps.Machine < 0 || ps.Machine >= e.m {
			return fmt.Errorf("sim: restore: piece %d on machine %d of %d", k, ps.Machine, e.m)
		}
		if ps.End.Cmp(ps.Start) <= 0 || ps.Fraction.Sign() <= 0 {
			return fmt.Errorf("sim: restore: piece %d missing fields", k)
		}
		// Compact relies on the order AdvanceTo writes pieces in.
		if k > 0 && ps.Start.Cmp(st.Pieces[k-1].Start) < 0 {
			return fmt.Errorf("sim: restore: piece %d starts at %v, before piece %d's start %v", k, ps.Start, k-1, st.Pieces[k-1].Start)
		}
		e.pieces = append(e.pieces, *ps)
		// Pieces are appended in execution order, so the last occurrence per
		// machine is exactly the index AdvanceTo would extend.
		e.lastPiece[ps.Machine] = len(e.pieces) - 1
	}
	if st.HaveAlloc {
		if len(st.Alloc) != e.m {
			return fmt.Errorf("sim: restore: allocation over %d machines, want %d", len(st.Alloc), e.m)
		}
		e.alloc = Allocation{MachineJob: append([]int(nil), st.Alloc...), Review: st.Review}
		e.haveAlloc = true
	}
	e.now = st.Now
	e.decisions = st.Decisions
	e.completed = st.Completed
	e.migrations = st.Migrations
	return nil
}

// PlanJobState is one entry of a plan fingerprint: a job's remaining
// fraction at the time of the cached solve.
type PlanJobState struct {
	ID        int     `json:"id"`
	Remaining exact.Q `json:"remaining"`
}

// PlanPieceState is one piece of the cached plan, in absolute times.
type PlanPieceState struct {
	Machine int     `json:"machine"`
	Job     int     `json:"job"`
	Start   exact.Q `json:"start"`
	End     exact.Q `json:"end"`
}

// MWFPlanState is OnlineMWF's plan cache, held in the form it exports: the
// last solve's plan, the residual-workload fingerprint it was computed for,
// and the solve counters. That is all the state the policy has: a solve is a
// function of the residual workload alone and carries nothing to the next
// one. With the plan restored, a restored engine's next decision is served
// from the cache exactly as the original engine's would have been, and every
// later solve returns what the original's would, so the restored trace
// continues bit-for-bit (TestRestoreAtAnyDecisionKeepsTheTrace).
type MWFPlanState struct {
	Plan []PlanPieceState `json:"plan,omitempty"`
	// SolveAt and SolveRem are the fingerprint, held only under LazyResolve:
	// the time of the cached solve (a solve at time zero still has one) and
	// every job's remaining fraction then, sorted by job ID. The two are set
	// together, and the policy holds a fingerprint only while both are.
	SolveAt   *exact.Q       `json:"solveAt,omitempty"`
	SolveRem  []PlanJobState `json:"solveRem,omitempty"`
	Solves    int            `json:"solves,omitempty"`
	CacheHits int            `json:"cacheHits,omitempty"`
	// Solver tallies the hybrid-engine paths of every solve: a restore
	// without it would run the exported solver-path counters backwards.
	Solver stats.SolverTally `json:"solver,omitzero"`
}

// clone copies the state with slices of its own. SolveAt is shared: the
// policy replaces it and never writes through it.
func (st MWFPlanState) clone() *MWFPlanState {
	st.Plan = slices.Clone(st.Plan)
	st.SolveRem = slices.Clone(st.SolveRem)
	return &st
}

// ExportPlanState copies the policy's cached plan and counters. It returns a
// state even when no plan is cached (counters still carry over).
func (p *OnlineMWF) ExportPlanState() *MWFPlanState { return p.cache.clone() }

// RestorePlanState installs an exported plan cache into a fresh policy.
func (p *OnlineMWF) RestorePlanState(st *MWFPlanState) {
	if st == nil {
		return
	}
	p.cache = *st.clone()
}

package sim

import (
	"fmt"
	"slices"
	"sort"

	"divflow/internal/exact"
	"divflow/internal/schedule"
)

// CostFunc gives the cost c_{i,j} for machine i processing the whole of job
// j, with ok=false when the machine is ineligible. Job IDs are stable,
// caller-chosen identifiers; they need not be dense.
type CostFunc func(machine, jobID int) (exact.Q, bool)

// Engine is the incremental policy-stepping core shared by Run (the
// closed-world replay of a full instance) and the divflowd scheduling
// service (an open world where jobs keep arriving). It owns the live job
// set, the current allocation, and the executed-schedule trace; callers
// drive it with the Add / Decide / NextEvent / AdvanceTo cycle:
//
//	e.Add(id, release, weight, size)   // job becomes visible
//	e.Decide()                         // ask the policy for an allocation
//	t := e.NextEvent()                 // earliest completion/review time
//	done, _ := e.AdvanceTo(t)          // execute the allocation until t
//
// All arithmetic is exact, on exact.Q, and so is every method and the
// executed trace: times, weights, sizes, fractions and pieces go in and come
// out as values. Schedule converts the trace to a *big.Rat schedule.Schedule,
// which passes the same validator as the offline solvers' schedules once
// every job completes.
type Engine struct {
	m      int
	cost   CostFunc
	policy Policy

	now exact.Q
	// jobs holds every live job and every completed, not yet compacted one,
	// in the form ExportState writes: a job is finished once Completed is
	// set (AdvanceTo only moves forward, so no job completes at time zero).
	jobs map[int]*JobState
	// order lists live job IDs sorted by (release, ID): the snapshot order
	// policies rely on.
	order []int

	pieces    []PieceState // executed trace, in nondecreasing start order
	lastPiece []int        // last recorded piece per machine, -1 none
	// finished lists completed, not yet compacted job IDs in completion
	// order: Compact pops its prefix.
	finished []int

	alloc     Allocation
	haveAlloc bool

	decisions  int
	completed  int
	migrations int
}

// NewEngine returns an engine over m machines with the given cost function,
// stepping the policy from time zero. The policy is Reset.
func NewEngine(m int, cost CostFunc, p Policy) *Engine {
	p.Reset()
	e := &Engine{
		m:         m,
		cost:      cost,
		policy:    p,
		jobs:      make(map[int]*JobState),
		lastPiece: make([]int, m),
	}
	for i := range e.lastPiece {
		e.lastPiece[i] = -1
	}
	return e
}

// Now returns the engine's current time.
func (e *Engine) Now() exact.Q { return e.now }

// Policy returns the policy the engine steps.
func (e *Engine) Policy() Policy { return e.policy }

// Decisions returns how many times the policy has been consulted.
func (e *Engine) Decisions() int { return e.decisions }

// Live returns the number of released, incomplete jobs.
func (e *Engine) Live() int { return len(e.order) }

// CompletedCount returns how many jobs have completed.
func (e *Engine) CompletedCount() int { return e.completed }

// Completion returns the completion time of a job, ok=false when the job is
// unknown or still live.
func (e *Engine) Completion(id int) (exact.Q, bool) {
	j := e.jobs[id]
	if j == nil || !j.done() {
		return exact.Q{}, false
	}
	return j.Completed, true
}

// Remaining returns the unprocessed fraction of a job, ok=false when the job
// is unknown.
func (e *Engine) Remaining(id int) (exact.Q, bool) {
	j := e.jobs[id]
	if j == nil {
		return exact.Q{}, false
	}
	return j.Remaining, true
}

// Schedule returns the executed trace as a fresh schedule the caller owns:
// the one place the trace is converted to *big.Rat.
func (e *Engine) Schedule() *schedule.Schedule {
	out := &schedule.Schedule{Pieces: make([]schedule.Piece, len(e.pieces))}
	for k := range e.pieces {
		pc := &e.pieces[k]
		out.Pieces[k] = schedule.Piece{Machine: pc.Machine, Job: pc.Job, Start: pc.Start.Rat(), End: pc.End.Rat(), Fraction: pc.Fraction.Rat()}
	}
	return out
}

// Pieces returns the executed trace itself. The slice is live engine state:
// callers must not mutate it, and must not retain it across AdvanceTo or
// Compact calls without external synchronization.
func (e *Engine) Pieces() []PieceState { return e.pieces }

// Add makes a whole job visible to the policy from the current time onward.
// The release is the job's flow origin (it may precede the current time:
// flows are measured from submission, not from admission); weight must be
// positive; a zero size is an unsized job. The job must be eligible on at
// least one machine, and the ID must be new.
func (e *Engine) Add(id int, release, weight, size exact.Q) error {
	return e.AddPartial(id, release, weight, size, exact.Int(1))
}

// AddPartial admits a job of which only the given fraction is left to
// process — the admission path for jobs extracted from another engine with
// Remove and migrated here. remaining must be in (0, 1]; zero reads as 1, a
// whole job, as it does in the records that carry it. The release keeps the
// job's original flow origin, so flow and stretch stay measured from first
// submission no matter how many engines the job crosses.
func (e *Engine) AddPartial(id int, release, weight, size, remaining exact.Q) error {
	if remaining.Sign() == 0 {
		remaining = exact.Int(1)
	}
	if _, dup := e.jobs[id]; dup {
		return fmt.Errorf("sim: duplicate job id %d", id)
	}
	if release.Sign() < 0 {
		return fmt.Errorf("sim: job %d needs a release date >= 0", id)
	}
	if weight.Sign() <= 0 {
		return fmt.Errorf("sim: job %d needs a weight > 0", id)
	}
	if remaining.Sign() < 0 || remaining.Cmp(exact.Int(1)) > 0 {
		return fmt.Errorf("sim: job %d needs remaining in (0, 1], got %v", id, remaining)
	}
	eligible := false
	for i := 0; i < e.m; i++ {
		if c, ok := e.cost(i, id); ok {
			if c.Sign() <= 0 {
				return fmt.Errorf("sim: job %d has cost <= 0 on machine %d", id, i)
			}
			eligible = true
		}
	}
	if !eligible {
		return fmt.Errorf("sim: job %d cannot run on any machine", id)
	}
	e.jobs[id] = &JobState{ID: id, Release: release, Weight: weight, Size: size, Remaining: remaining}
	k := sort.Search(len(e.order), func(k int) bool { return e.before(id, e.order[k]) })
	e.order = slices.Insert(e.order, k, id)
	return nil
}

// before orders job IDs by (release, ID): the order of e.order.
func (e *Engine) before(a, b int) bool {
	if c := e.jobs[a].Release.Cmp(e.jobs[b].Release); c != 0 {
		return c < 0
	}
	return a < b
}

// Compact drops execution history from before horizon: executed schedule
// pieces that ended at or before it, and completed jobs whose completion
// time is at or before it (neither can influence any future decision —
// policies only see live jobs, and finished pieces never change). It
// returns the IDs of the forgotten jobs, in completion order, so the caller
// can release its own per-job state. Live jobs are never touched; the
// horizon should not exceed the current time, or the piece a machine is
// still extending would be split. After compaction the executed trace no
// longer accounts for the forgotten jobs' work, so it only validates against
// the retained window.
//
// A compaction costs what it drops plus one look per machine, not the
// retained window. It relies on two orders the engine keeps: pieces are in
// nondecreasing start order (AdvanceTo appends each at the current time and
// extending one moves only its end; RestoreState refuses any other order),
// so every piece from the first one starting at or after the horizon on ends
// after it, and the prefix before that holds at most one piece per machine
// that straddles the horizon; and finished jobs are queued in completion
// order.
func (e *Engine) Compact(horizon exact.Q) []int {
	pieces := e.pieces
	cut, kept := 0, 0
	for ; cut < len(pieces) && pieces[cut].Start.Cmp(horizon) < 0; cut++ {
		pc := &pieces[cut]
		straddles := pc.End.Cmp(horizon) > 0
		if e.lastPiece[pc.Machine] == cut {
			e.lastPiece[pc.Machine] = -1
			if straddles {
				e.lastPiece[pc.Machine] = kept
			}
		}
		if straddles {
			pieces[kept] = *pc
			kept++
		}
	}
	if dropped := cut - kept; dropped > 0 {
		for i, k := range e.lastPiece {
			if k >= cut {
				e.lastPiece[i] = k - dropped
			}
		}
		n := kept + copy(pieces[kept:], pieces[cut:])
		// Zero the tail so dropped pieces' rationals can be collected.
		clear(pieces[n:])
		e.pieces = pieces[:n]
	}
	n := 0
	for n < len(e.finished) && e.jobs[e.finished[n]].Completed.Cmp(horizon) <= 0 {
		delete(e.jobs, e.finished[n])
		n++
	}
	// The engine only ever appends past the queue's end, so the popped
	// prefix can be handed out as it is.
	forgotten := e.finished[:n:n]
	e.finished = e.finished[n:]
	return forgotten
}

// Makespan returns the executed trace's makespan, its latest piece end (zero
// for an empty trace): the same value as Schedule().Makespan(), read from
// the machines' last pieces. A machine's last piece is its latest, and a
// machine whose last piece was compacted has none retained.
func (e *Engine) Makespan() exact.Q {
	var ms exact.Q
	for _, k := range e.lastPiece {
		if k >= 0 && e.pieces[k].End.Cmp(ms) > 0 {
			ms = e.pieces[k].End
		}
	}
	return ms
}

// PlanInvalidator is implemented by policies whose cached plan is keyed to
// the live job set (OnlineMWF's lazy plan cache). Remove calls it so a stale
// plan piece for a vanished job can never be followed — the residual
// fingerprint would already reject such a plan, but removal makes the
// invalidation unconditional rather than an emergent property.
type PlanInvalidator interface{ InvalidatePlan() }

// Remove extracts a live job from the engine: the job disappears from the
// policy-visible set and from the current allocation, while the executed
// trace keeps every piece of work already done on it. The returned state —
// flow origin, weight, size and the exact fraction still unprocessed — is the
// caller's, and feeding it to another engine's AddPartial migrates the job
// without losing or duplicating any work. Unknown and completed jobs error.
func (e *Engine) Remove(id int) (*JobState, error) {
	j := e.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("sim: remove: unknown job %d", id)
	}
	if j.done() {
		return nil, fmt.Errorf("sim: remove: job %d already completed", id)
	}
	delete(e.jobs, id)
	e.order = slices.DeleteFunc(e.order, func(oid int) bool { return oid == id })
	// Scrub the installed allocation: a later AdvanceTo must not execute (or
	// extend a piece of) a job this engine no longer owns.
	if e.haveAlloc {
		for i, aid := range e.alloc.MachineJob {
			if aid == id {
				e.alloc.MachineJob[i] = -1
			}
		}
	}
	if inv, ok := e.policy.(PlanInvalidator); ok {
		inv.InvalidatePlan()
	}
	e.migrations++
	return j, nil
}

// Migrations returns how many live jobs have been extracted with Remove.
func (e *Engine) Migrations() int { return e.migrations }

// Snapshot builds the policy-visible view of the current state: the live jobs
// in (release, ID) order, at the engine's current time. A caller that needs
// remaining fractions as of some later instant advances the engine there
// first (the shard's catch-up does this).
func (e *Engine) Snapshot() *Snapshot {
	snap := &Snapshot{Now: e.now, M: e.m, Cost: e.cost, Jobs: make([]JobState, len(e.order))}
	for k, id := range e.order {
		snap.Jobs[k] = *e.jobs[id]
	}
	return snap
}

// Decide consults the policy and installs its allocation after validating
// it (correct width, only live jobs, only eligible machines).
func (e *Engine) Decide() error {
	alloc := e.policy.Assign(e.Snapshot())
	e.decisions++
	if len(alloc.MachineJob) != e.m {
		return fmt.Errorf("sim: policy %s allocated %d machines, want %d", e.policy.Name(), len(alloc.MachineJob), e.m)
	}
	for i, id := range alloc.MachineJob {
		if id < 0 {
			continue
		}
		j := e.jobs[id]
		if j == nil || j.done() {
			return fmt.Errorf("sim: policy %s assigned machine %d an unavailable job %d", e.policy.Name(), i, id)
		}
		if _, ok := e.cost(i, id); !ok {
			return fmt.Errorf("sim: policy %s ran job %d on ineligible machine %d", e.policy.Name(), id, i)
		}
	}
	e.alloc = alloc
	e.haveAlloc = true
	return nil
}

// NextEvent returns the earliest time strictly after now at which the
// current allocation produces an event — a job completion or the policy's
// requested review point — with ok=false when nothing is pending (idle
// machines and no review). The caller decides how far to AdvanceTo, folding
// in any external events (releases, submissions) it knows about. A job the
// allocation runs completes at now + remaining / Σ 1/c_{i,j}, the sum over
// the machines working on it.
func (e *Engine) NextEvent() (next exact.Q, ok bool) {
	if !e.haveAlloc {
		return next, false
	}
	consider := func(cand exact.Q) {
		if cand.Cmp(e.now) > 0 && (!ok || cand.Cmp(next) < 0) {
			next, ok = cand, true
		}
	}
	rate := make(map[int]exact.Q, e.m)
	for i, id := range e.alloc.MachineJob {
		if id >= 0 {
			c, _ := e.cost(i, id)
			rate[id] = rate[id].Add(c.Inv())
		}
	}
	for id, rt := range rate {
		consider(e.now.Add(e.jobs[id].Remaining.Quo(rt)))
	}
	consider(e.alloc.Review)
	return next, ok
}

// AdvanceTo executes the current allocation from now to t, recording
// schedule pieces (in exact.Q, as the trace holds them), consuming work, and
// completing jobs that reach zero remaining fraction. It returns the IDs of jobs that completed at t. The
// target must not move backwards nor overshoot a pending completion
// (callers advance to min(NextEvent, external event)).
func (e *Engine) AdvanceTo(t exact.Q) ([]int, error) {
	cmp := t.Cmp(e.now)
	if cmp < 0 {
		return nil, fmt.Errorf("sim: time moved backwards: %v -> %v", e.now, t)
	}
	if cmp == 0 {
		return nil, nil
	}
	dt := t.Sub(e.now)
	var worked []int
	if e.haveAlloc {
		for i, id := range e.alloc.MachineJob {
			if id < 0 {
				continue
			}
			c, _ := e.cost(i, id)
			frac := dt.Quo(c)
			j := e.jobs[id]
			j.Remaining = j.Remaining.Sub(frac)
			worked = append(worked, id)
			// A machine continuing the same job across an event boundary
			// extends its last piece, so piece counts reflect genuine
			// preemptions/migrations rather than event granularity.
			if k := e.lastPiece[i]; k >= 0 {
				if pc := &e.pieces[k]; pc.Job == id && pc.End.Cmp(e.now) == 0 {
					pc.End = t
					pc.Fraction = pc.Fraction.Add(frac)
					continue
				}
			}
			e.pieces = append(e.pieces, PieceState{Machine: i, Job: id, Start: e.now, End: t, Fraction: frac})
			e.lastPiece[i] = len(e.pieces) - 1
		}
	}
	var done []int
	for _, id := range worked {
		j := e.jobs[id]
		if j.done() || j.Remaining.Sign() > 0 {
			continue
		}
		if j.Remaining.Sign() < 0 {
			return nil, fmt.Errorf("sim: job %d over-processed (internal error)", id)
		}
		j.Completed = t
		e.completed++
		done = append(done, id)
	}
	if len(done) > 0 {
		e.order = slices.DeleteFunc(e.order, func(id int) bool { return e.jobs[id].done() })
		e.finished = append(e.finished, done...)
	}
	e.now = t
	return done, nil
}

package sim

import (
	"fmt"
	"math/big"
	"sort"

	"divflow/internal/schedule"
)

// CostFunc gives the cost c_{i,j} for machine i processing the whole of job
// j, with ok=false when the machine is ineligible. Job IDs are stable,
// caller-chosen identifiers; they need not be dense.
type CostFunc func(machine, jobID int) (*big.Rat, bool)

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
// All arithmetic is exact; the trace the engine records passes the same
// validator as the offline solvers' schedules once every job completes.
type Engine struct {
	m      int
	cost   CostFunc
	policy Policy

	now  *big.Rat
	jobs map[int]*engineJob
	// order lists live job IDs sorted by (release, ID): the snapshot order
	// policies rely on.
	order []int

	sched     *schedule.Schedule
	lastPiece []int // last recorded piece per machine, -1 none

	alloc     Allocation
	haveAlloc bool

	decisions  int
	completed  int
	migrations int
}

// ratOne is the constant 1; never mutated.
var ratOne = big.NewRat(1, 1)

type engineJob struct {
	release   *big.Rat
	weight    *big.Rat
	size      *big.Rat // nil when unsized
	remaining *big.Rat
	completed *big.Rat // completion time, nil while live
}

// NewEngine returns an engine over m machines with the given cost function,
// stepping the policy from time zero. The policy is Reset.
func NewEngine(m int, cost CostFunc, p Policy) *Engine {
	p.Reset()
	e := &Engine{
		m:         m,
		cost:      cost,
		policy:    p,
		now:       new(big.Rat),
		jobs:      make(map[int]*engineJob),
		sched:     &schedule.Schedule{},
		lastPiece: make([]int, m),
	}
	for i := range e.lastPiece {
		e.lastPiece[i] = -1
	}
	return e
}

// Now returns the engine's current time (a copy).
func (e *Engine) Now() *big.Rat { return new(big.Rat).Set(e.now) }

// Policy returns the policy the engine steps.
func (e *Engine) Policy() Policy { return e.policy }

// Decisions returns how many times the policy has been consulted.
func (e *Engine) Decisions() int { return e.decisions }

// Live returns the number of released, incomplete jobs.
func (e *Engine) Live() int { return len(e.order) }

// CompletedCount returns how many jobs have completed.
func (e *Engine) CompletedCount() int { return e.completed }

// Completion returns the completion time of a job (a copy), or nil when the
// job is unknown or still live.
func (e *Engine) Completion(id int) *big.Rat {
	j := e.jobs[id]
	if j == nil || j.completed == nil {
		return nil
	}
	return new(big.Rat).Set(j.completed)
}

// Remaining returns the unprocessed fraction of a job (a copy), or nil when
// the job is unknown.
func (e *Engine) Remaining(id int) *big.Rat {
	j := e.jobs[id]
	if j == nil {
		return nil
	}
	return new(big.Rat).Set(j.remaining)
}

// Schedule returns the executed trace. The pointer is live engine state:
// callers must not mutate it, and must not retain it across AdvanceTo calls
// without external synchronization.
func (e *Engine) Schedule() *schedule.Schedule { return e.sched }

// Add makes a job visible to the policy from the current time onward. The
// release is the job's flow origin (it may precede the current time: flows
// are measured from submission, not from admission); weight must be
// positive; size may be nil for unsized jobs. The job must be eligible on at
// least one machine, and the ID must be new.
func (e *Engine) Add(id int, release, weight, size *big.Rat) error {
	return e.AddPartial(id, release, weight, size, nil)
}

// AddPartial admits a job of which only the given fraction is left to
// process — the admission path for jobs extracted from another engine with
// Remove and migrated here. remaining must be in (0, 1]; nil means 1 (a
// whole job, identical to Add). The release keeps the job's original flow
// origin, so flow and stretch stay measured from first submission no matter
// how many engines the job crosses.
func (e *Engine) AddPartial(id int, release, weight, size, remaining *big.Rat) error {
	if _, dup := e.jobs[id]; dup {
		return fmt.Errorf("sim: duplicate job id %d", id)
	}
	if release == nil || release.Sign() < 0 {
		return fmt.Errorf("sim: job %d needs a release date >= 0", id)
	}
	if weight == nil || weight.Sign() <= 0 {
		return fmt.Errorf("sim: job %d needs a weight > 0", id)
	}
	if remaining != nil && (remaining.Sign() <= 0 || remaining.Cmp(ratOne) > 0) {
		return fmt.Errorf("sim: job %d needs remaining in (0, 1], got %v", id, remaining.RatString())
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
	j := &engineJob{
		release:   new(big.Rat).Set(release),
		weight:    new(big.Rat).Set(weight),
		remaining: big.NewRat(1, 1),
	}
	if remaining != nil {
		j.remaining.Set(remaining)
	}
	if size != nil {
		j.size = new(big.Rat).Set(size)
	}
	e.jobs[id] = j
	e.order = append(e.order, id)
	sort.SliceStable(e.order, func(a, b int) bool {
		ja, jb := e.jobs[e.order[a]], e.jobs[e.order[b]]
		if c := ja.release.Cmp(jb.release); c != 0 {
			return c < 0
		}
		return e.order[a] < e.order[b]
	})
	return nil
}

// Compact drops execution history from before horizon: executed schedule
// pieces that ended at or before it, and completed jobs whose completion
// time is at or before it (neither can influence any future decision —
// policies only see live jobs, and finished pieces never change). It
// returns the IDs of the forgotten jobs so the caller can release its own
// per-job state. Live jobs are never touched; the horizon should not exceed
// the current time, or the piece a machine is still extending would be
// split. After compaction the executed trace no longer accounts for the
// forgotten jobs' work, so it only validates against the retained window.
func (e *Engine) Compact(horizon *big.Rat) []int {
	keep := e.sched.Pieces[:0]
	remap := make(map[int]int, len(e.lastPiece))
	for k := range e.sched.Pieces {
		pc := &e.sched.Pieces[k]
		if pc.End.Cmp(horizon) <= 0 {
			continue
		}
		remap[k] = len(keep)
		keep = append(keep, *pc)
	}
	// Zero the tail so dropped pieces' rationals can be collected.
	for k := len(keep); k < len(e.sched.Pieces); k++ {
		e.sched.Pieces[k] = schedule.Piece{}
	}
	e.sched.Pieces = keep
	for i, k := range e.lastPiece {
		if k < 0 {
			continue
		}
		if nk, ok := remap[k]; ok {
			e.lastPiece[i] = nk
		} else {
			e.lastPiece[i] = -1
		}
	}
	var forgotten []int
	for id, j := range e.jobs {
		if j.completed != nil && j.completed.Cmp(horizon) <= 0 {
			forgotten = append(forgotten, id)
			delete(e.jobs, id)
		}
	}
	return forgotten
}

// RemovedJob is the exact live state Remove extracts from the engine: the
// job's flow origin, weight, size, and the fraction of it still unprocessed
// at removal time. Feeding it to another engine's AddPartial migrates the
// job without losing or duplicating any work.
type RemovedJob struct {
	Release   *big.Rat
	Weight    *big.Rat
	Size      *big.Rat // nil when unsized
	Remaining *big.Rat
}

// PlanInvalidator is implemented by policies whose cached plan is keyed to
// the live job set (OnlineMWF's lazy plan cache). Remove calls it so a stale
// plan piece for a vanished job can never be followed — the residual
// fingerprint would already reject such a plan, but removal makes the
// invalidation unconditional rather than an emergent property.
type PlanInvalidator interface{ InvalidatePlan() }

// Remove extracts a live job from the engine: the job disappears from the
// policy-visible set and from the current allocation, while the executed
// trace keeps every piece of work already done on it. The returned state
// (exact remaining fraction included) lets the caller re-admit the job in a
// different engine with AddPartial. Unknown and completed jobs error.
func (e *Engine) Remove(id int) (*RemovedJob, error) {
	j := e.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("sim: remove: unknown job %d", id)
	}
	if j.completed != nil {
		return nil, fmt.Errorf("sim: remove: job %d already completed", id)
	}
	delete(e.jobs, id)
	for k, oid := range e.order {
		if oid == id {
			e.order = append(e.order[:k], e.order[k+1:]...)
			break
		}
	}
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
	// Ownership transfer, not aliasing: the job is deleted from the engine
	// below, so the extracted record becomes the rats' only owner.
	out := &RemovedJob{
		Release:   j.release,   //divflow:ratalias-ok ownership transfer; the engine deletes the job
		Weight:    j.weight,    //divflow:ratalias-ok ownership transfer; the engine deletes the job
		Remaining: j.remaining, //divflow:ratalias-ok ownership transfer; the engine deletes the job
	}
	if j.size != nil {
		out.Size = j.size //divflow:ratalias-ok ownership transfer; the engine deletes the job
	}
	return out, nil
}

// Migrations returns how many live jobs have been extracted with Remove.
func (e *Engine) Migrations() int { return e.migrations }

// LiveIDs returns the IDs of released, incomplete jobs (a copy, in
// (release, ID) order).
func (e *Engine) LiveIDs() []int { return append([]int(nil), e.order...) }

// ResidualJob is one live job's exact residual state: the inputs an
// admission-control feasibility check needs to reconstruct the engine's
// outstanding workload as a fresh model.Instance. All rationals are copies.
type ResidualJob struct {
	ID        int
	Release   *big.Rat
	Weight    *big.Rat
	Size      *big.Rat // nil when unsized
	Remaining *big.Rat // unprocessed fraction in (0, 1]
}

// Residual extracts the live jobs' residual state in (release, ID) order —
// the read-only sibling of Remove: nothing leaves the engine, the
// caller just learns exactly how much of each live job is still unprocessed
// at the current time. Callers that need the post-allocation remainders
// should advance the engine to the present first (the shard's catch-up does
// this); Residual itself reads whatever state the engine is at.
func (e *Engine) Residual() []ResidualJob {
	out := make([]ResidualJob, 0, len(e.order))
	for _, id := range e.order {
		j := e.jobs[id]
		rj := ResidualJob{
			ID:        id,
			Release:   new(big.Rat).Set(j.release),
			Weight:    new(big.Rat).Set(j.weight),
			Remaining: new(big.Rat).Set(j.remaining),
		}
		if j.size != nil {
			rj.Size = new(big.Rat).Set(j.size)
		}
		out = append(out, rj)
	}
	return out
}

// Snapshot builds the policy-visible view of the current state.
func (e *Engine) Snapshot() *Snapshot {
	snap := &Snapshot{Now: e.Now(), M: e.m, Cost: e.cost}
	for _, id := range e.order {
		j := e.jobs[id]
		snap.Jobs = append(snap.Jobs, JobView{
			ID:        id,
			Release:   j.release, //divflow:ratalias-ok policy views are read-only by contract
			Weight:    j.weight,  //divflow:ratalias-ok policy views are read-only by contract
			Size:      j.size,    //divflow:ratalias-ok policy views are read-only by contract
			Remaining: new(big.Rat).Set(j.remaining),
		})
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
		if j == nil || j.completed != nil {
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

// rates returns, for every job some machine is working on, the total
// processing rate Σ 1/c_{i,j} of the current allocation.
func (e *Engine) rates() map[int]*big.Rat {
	rate := make(map[int]*big.Rat)
	if !e.haveAlloc {
		return rate
	}
	for i, id := range e.alloc.MachineJob {
		if id < 0 {
			continue
		}
		c, _ := e.cost(i, id)
		if rate[id] == nil {
			rate[id] = new(big.Rat)
		}
		rate[id].Add(rate[id], new(big.Rat).Inv(c))
	}
	return rate
}

// NextEvent returns the earliest time strictly after now at which the
// current allocation produces an event — a job completion or the policy's
// requested review point — or nil when nothing is pending (idle machines
// and no review). The caller decides how far to AdvanceTo, folding in any
// external events (releases, submissions) it knows about.
func (e *Engine) NextEvent() *big.Rat {
	var next *big.Rat
	consider := func(cand *big.Rat) {
		if cand.Cmp(e.now) <= 0 {
			return
		}
		if next == nil || cand.Cmp(next) < 0 {
			next = new(big.Rat).Set(cand)
		}
	}
	for id, rt := range e.rates() {
		if rt.Sign() > 0 {
			dt := new(big.Rat).Quo(e.jobs[id].remaining, rt)
			consider(new(big.Rat).Add(e.now, dt))
		}
	}
	if e.haveAlloc && e.alloc.Review != nil {
		consider(e.alloc.Review)
	}
	return next
}

// AdvanceTo executes the current allocation from now to t, recording
// schedule pieces, consuming work, and completing jobs that reach zero
// remaining fraction. It returns the IDs of jobs that completed at t. The
// target must not move backwards nor overshoot a pending completion
// (callers advance to min(NextEvent, external event)).
func (e *Engine) AdvanceTo(t *big.Rat) ([]int, error) {
	cmp := t.Cmp(e.now)
	if cmp < 0 {
		return nil, fmt.Errorf("sim: time moved backwards: %v -> %v", e.now.RatString(), t.RatString())
	}
	if cmp == 0 {
		return nil, nil
	}
	dt := new(big.Rat).Sub(t, e.now)
	end := new(big.Rat).Set(t)
	var worked []int
	if e.haveAlloc {
		for i, id := range e.alloc.MachineJob {
			if id < 0 {
				continue
			}
			c, _ := e.cost(i, id)
			frac := new(big.Rat).Quo(dt, c)
			j := e.jobs[id]
			// A machine continuing the same job across an event boundary
			// extends its last piece, so piece counts reflect genuine
			// preemptions/migrations rather than event granularity.
			if k := e.lastPiece[i]; k >= 0 {
				if pc := &e.sched.Pieces[k]; pc.Job == id && pc.End.Cmp(e.now) == 0 {
					pc.End = new(big.Rat).Set(end)
					pc.Fraction.Add(pc.Fraction, frac)
					j.remaining.Sub(j.remaining, frac)
					worked = append(worked, id)
					continue
				}
			}
			e.sched.Add(i, id, e.now, end, frac)
			e.lastPiece[i] = len(e.sched.Pieces) - 1
			j.remaining.Sub(j.remaining, frac)
			worked = append(worked, id)
		}
	}
	var done []int
	for _, id := range worked {
		j := e.jobs[id]
		if j.completed != nil || j.remaining.Sign() > 0 {
			continue
		}
		if j.remaining.Sign() < 0 {
			return nil, fmt.Errorf("sim: job %d over-processed (internal error)", id)
		}
		j.completed = new(big.Rat).Set(end)
		e.completed++
		done = append(done, id)
	}
	if len(done) > 0 {
		live := e.order[:0]
		for _, id := range e.order {
			if e.jobs[id].completed == nil {
				live = append(live, id)
			}
		}
		e.order = live
	}
	e.now = end
	return done, nil
}

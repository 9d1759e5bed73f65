package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"divflow/internal/core"
	"divflow/internal/exact"
	"divflow/internal/schedule"
	"divflow/internal/stats"
)

// OnlineMWF is the online adaptation of the paper's offline algorithm
// sketched in its conclusion: at every event, the scheduler re-solves the
// *offline* max-weighted-flow problem on the residual workload — released,
// incomplete jobs, with their remaining fractions and their original
// submission dates as flow origins — and applies the head of the resulting
// schedule until the next event. Divisibility (or, in the paper's phrasing,
// "a simple preemption scheme") comes for free: re-solving at every event
// naturally preempts and migrates work.
type OnlineMWF struct {
	// Mode selects the execution model of the inner offline solve:
	// schedule.Divisible reproduces the divisible adaptation,
	// schedule.Preemptive the variant of Section 4.4.
	Mode schedule.Model
	// Observer, when non-nil, receives per-decision telemetry: the wall
	// duration and solver-path tally of every settled inner solve, and every
	// decision point served from the cached plan. It is called synchronously
	// on the scheduling goroutine (divflowd invokes Assign under the shard
	// mutex), so implementations must be cheap — an effect append, not I/O.
	// Unlike the counters below it survives
	// Reset: it describes where telemetry goes, not per-run state.
	Observer MWFObserver
	// LazyResolve, when set, caches the plan of the last solve and skips
	// the exact solver at every later event whose residual workload matches
	// what the plan predicted for that time — an ablation of the re-solve
	// frequency, and the plan cache of the divflowd scheduling service.
	// Because the cached plan was optimal and execution is exact, the
	// fingerprint matches at every event except new arrivals (and any
	// external perturbation of the workload), so this saves most of the LP
	// solves. It selects a different policy, not a faster implementation of
	// the same one: an eager re-solve at a completion may pick another optimal
	// residual schedule, and later arrivals then meet a different state. On
	// workload.Default() with 6 jobs, mean interarrival 2, seeds 0–59, the two
	// give the identical trace on 11 seeds, the same max weighted flow by a
	// different trace on 47, and a different max weighted flow on 2 (seed 32:
	// 14/3 eager, 1051/225 lazy; seed 59: 41/2 against 165/8).
	LazyResolve bool

	// err records an inner-solver failure; the policy then idles, which
	// the simulator reports as a stall carrying this error's context.
	err error
	// cache is the schedule computed at the last solve (absolute times, jobs
	// identified by real IDs), under LazyResolve the fingerprint of the
	// residual workload it was computed for — later events are matched
	// against the plan's own prediction evolved from it — and the counters:
	// Solves counts inner exact LP-based solves, for the ablation report,
	// CacheHits the decision points served from the cached plan, Solver the
	// hybrid-engine paths all inner LP solves took.
	cache MWFPlanState
}

// MWFObserver receives OnlineMWF's per-decision telemetry. ObserveSolve is
// called after every inner exact solve that settled (with the wall time the
// core solver measured and the per-call solver-path tally); ObserveCacheHit
// after every decision point the cached plan answered without a solve. The
// divflowd shard core implements it with an effect append each, which its
// shell reports once the step is over.
type MWFObserver interface {
	ObserveSolve(wall time.Duration, solver stats.SolverTally)
	ObserveCacheHit()
}

// NewOnlineMWF returns the divisible-model online adaptation.
func NewOnlineMWF() *OnlineMWF { return &OnlineMWF{Mode: schedule.Divisible} }

// NewOnlineMWFPreemptive returns the preemptive-model online adaptation.
func NewOnlineMWFPreemptive() *OnlineMWF { return &OnlineMWF{Mode: schedule.Preemptive} }

// NewOnlineMWFLazy returns the divisible adaptation that re-solves only on
// new arrivals.
func NewOnlineMWFLazy() *OnlineMWF { return &OnlineMWF{Mode: schedule.Divisible, LazyResolve: true} }

// Name implements Policy.
func (p *OnlineMWF) Name() string {
	switch {
	case p.LazyResolve:
		return "online-mwf-lazy"
	case p.Mode == schedule.Preemptive:
		return "online-mwf-preempt"
	default:
		return "online-mwf"
	}
}

// Solves reports how many inner offline solves the last run performed.
func (p *OnlineMWF) Solves() int { return p.cache.Solves }

// CacheHits reports how many decision points were served from the cached
// plan (LazyResolve only) instead of invoking the exact solver.
func (p *OnlineMWF) CacheHits() int { return p.cache.CacheHits }

// SolverTally reports, for the last run, how the inner exact LP solves were
// settled by the hybrid engine (float-verified vs full exact fallback) and
// how often the basis of the search's own probe settled one.
func (p *OnlineMWF) SolverTally() stats.SolverTally { return p.cache.Solver }

// Reset implements Policy.
func (p *OnlineMWF) Reset() {
	p.err = nil
	p.cache = MWFPlanState{}
}

// Err reports the first inner-solver failure, if any.
func (p *OnlineMWF) Err() error { return p.err }

// InvalidatePlan implements sim.PlanInvalidator: it drops the cached plan
// and its residual-workload fingerprint, forcing the next Assign through a
// fresh solve. The engine calls it when a live job is removed (migrated to
// another shard), so no stale plan piece for the vanished job is ever
// followed.
func (p *OnlineMWF) InvalidatePlan() {
	p.cache.Plan, p.cache.SolveAt, p.cache.SolveRem = nil, nil, nil
}

// Assign implements Policy.
func (p *OnlineMWF) Assign(s *Snapshot) Allocation {
	if len(s.Jobs) == 0 || p.err != nil {
		return idleAllocation(s.M)
	}
	if p.LazyResolve && p.planPredicts(s) {
		p.cache.CacheHits++
		if p.Observer != nil {
			p.Observer.ObserveCacheHit()
		}
		return p.followPlan(s)
	}
	plan, err := p.resolve(s)
	p.cache.Solves++
	if err != nil {
		p.err = fmt.Errorf("online-mwf: residual solve at t=%v: %w", s.Now, err)
		return idleAllocation(s.M)
	}
	if p.LazyResolve {
		at := s.Now
		p.cache.SolveAt = &at
		p.cache.SolveRem = make([]PlanJobState, len(s.Jobs))
		for k := range s.Jobs {
			p.cache.SolveRem[k] = PlanJobState{ID: s.Jobs[k].ID, Remaining: s.Jobs[k].Remaining}
		}
		slices.SortFunc(p.cache.SolveRem, func(a, b PlanJobState) int { return cmp.Compare(a.ID, b.ID) })
	}
	p.cache.Plan = make([]PlanPieceState, len(plan.Pieces))
	for k, piece := range plan.Pieces {
		p.cache.Plan[k] = PlanPieceState{Machine: piece.Machine, Job: s.Jobs[piece.Job].ID, Start: piece.Start, End: piece.End}
	}
	return p.followPlan(s)
}

// fingerprinted finds a job in a fingerprint sorted by ID.
func fingerprinted(fp []PlanJobState, id int) (int, bool) {
	return slices.BinarySearchFunc(fp, id, func(e PlanJobState, id int) int { return cmp.Compare(e.ID, id) })
}

// planPredicts reports whether a plan and its fingerprint are held and the
// residual workload at s.Now matches what the plan predicted: no job outside
// the fingerprint has appeared, every live job's remaining fraction equals
// the fingerprint state evolved along the plan, and every job the plan still
// expected to be running is indeed live. On a match the plan is still optimal
// and the solver can be skipped.
func (p *OnlineMWF) planPredicts(s *Snapshot) bool {
	if p.cache.Plan == nil || p.cache.SolveAt == nil || p.cache.SolveRem == nil {
		return false
	}
	pred := p.predictedRemaining(s)
	live := make([]bool, len(pred))
	for k := range s.Jobs {
		jv := &s.Jobs[k]
		i, ok := fingerprinted(pred, jv.ID)
		if !ok || pred[i].Remaining.Cmp(jv.Remaining) != 0 {
			return false
		}
		live[i] = true
	}
	for i := range pred {
		// A job that left the system: the plan must agree it is done.
		if !live[i] && pred[i].Remaining.Sign() > 0 {
			return false
		}
	}
	return true
}

// PlanAhead is a read-only view of the cached plan from s.Now on: every plan
// piece that ends after s.Now, clipped to start no earlier. It answers only
// when there was no solver failure and planPredicts holds (an eager policy
// keeps no fingerprint, so it never answers) — so the pieces process exactly
// each live job's Remaining: they are a schedule of the residual workload,
// the one the policy is following. Nothing changes: no cache hit is counted
// and the Observer is not called.
func (p *OnlineMWF) PlanAhead(s *Snapshot) ([]PlanPieceState, bool) {
	if p.err != nil || !p.planPredicts(s) {
		return nil, false
	}
	ahead := make([]PlanPieceState, 0, len(p.cache.Plan))
	for _, piece := range p.cache.Plan {
		if piece.End.Cmp(s.Now) <= 0 {
			continue
		}
		if piece.Start.Cmp(s.Now) < 0 {
			piece.Start = s.Now
		}
		ahead = append(ahead, piece)
	}
	return ahead, true
}

// predictedRemaining evolves the fingerprint state from the solve time to
// s.Now along the cached plan: each plan piece overlapping [SolveAt, now)
// consumes duration/c_{i,j} of its job. The caller checks a fingerprint is
// held.
func (p *OnlineMWF) predictedRemaining(s *Snapshot) []PlanJobState {
	pred := slices.Clone(p.cache.SolveRem)
	for i := range p.cache.Plan {
		piece := &p.cache.Plan[i]
		start, end := piece.Start, piece.End
		if start.Cmp(*p.cache.SolveAt) < 0 {
			start = *p.cache.SolveAt
		}
		if end.Cmp(s.Now) > 0 {
			end = s.Now
		}
		if start.Cmp(end) >= 0 {
			continue
		}
		c, ok := s.Cost(piece.Machine, piece.Job)
		k, known := fingerprinted(pred, piece.Job)
		if !ok || !known {
			continue
		}
		pred[k].Remaining = pred[k].Remaining.Sub(end.Sub(start).Quo(c))
	}
	return pred
}

// followPlan applies the stored plan at s.Now: each machine runs the piece
// covering now (if its job is still live); the next decision point is the
// earliest piece boundary after now.
func (p *OnlineMWF) followPlan(s *Snapshot) Allocation {
	live := make(map[int]bool, len(s.Jobs))
	for k := range s.Jobs {
		live[s.Jobs[k].ID] = true
	}
	alloc := idleAllocation(s.M)
	var review exact.Q
	consider := func(t exact.Q) {
		if t.Cmp(s.Now) > 0 && (review.Sign() == 0 || t.Cmp(review) < 0) {
			review = t
		}
	}
	for i := range p.cache.Plan {
		piece := &p.cache.Plan[i]
		if piece.Start.Cmp(s.Now) <= 0 && piece.End.Cmp(s.Now) > 0 && live[piece.Job] {
			alloc.MachineJob[piece.Machine] = piece.Job
			consider(piece.End)
		} else {
			consider(piece.Start)
			consider(piece.End)
		}
	}
	alloc.Review = review
	return alloc
}

// resolve solves the snapshot's residual exactly. Residual job k is
// s.Jobs[k].
func (p *OnlineMWF) resolve(s *Snapshot) (*core.Plan, error) {
	r, err := s.Residual()
	if err != nil {
		return nil, err
	}
	// No deadline is held: a JobState carries none.
	plan, err := r.MinMaxWeightedFlow(p.Mode)
	if err != nil {
		return nil, err
	}
	p.cache.Solver.Merge(plan.Solver)
	if p.Observer != nil {
		p.Observer.ObserveSolve(plan.Wall, plan.Solver)
	}
	return plan, nil
}

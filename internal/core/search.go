package core

import (
	"errors"
	"math/big"
	"slices"
	"sort"

	"divflow/internal/affine"
	"divflow/internal/exact"
	"divflow/internal/lp"
	"divflow/internal/schedule"
	"divflow/internal/stats"
)

// rangeSearch finds the leftmost feasible range of a sequence of objective
// ranges over which feasibility is monotone (a feasible F makes every
// F' >= F feasible): the search of Theorem 2, shared by every solver that
// minimizes an objective the epochal order depends on.
//
// It starts from a floor, an exact lower bound on the objective that costs no
// LP (earliestEnd: a job alone on the platform). Every range that ends below
// the floor is infeasible by that bound, so the search opens on the leftmost
// range that reaches it — lo starts there — and unless the platform is
// saturated that is usually the optimal range itself.
//
// It locates with float probes and proves with one exact solve. A range LP
// on [F_k, F_{k+1}] whose exact minimum lies strictly above F_k is by itself
// a complete optimality proof: were any lower F feasible, F_k would be too,
// and the LP would have returned it. So the probes need no exactness: they
// choose where the certifying solve happens and which basis it tries first.
// A probe's answer is never trusted, its basis is verified exactly, so a
// wrong, stalled or lying probe costs extra exact work, never the result —
// and a probe may skip everything the proof needs: it fills the range's
// layout in float64 straight into the search's tableau (rangeLP.fillProbe),
// building no lp.Problem and no exact coefficient. The exact solve of a range
// a probe filled takes the layout the probe made.
//
// The search solves in one lp.Workspace, taken when it starts and handed back
// by done: the probes' tableau, which an exact solve's own float pass also
// runs in when the probe's basis misses, the exact fill, and the column view
// and factorization the verifier builds over it — and, kept with it, the two
// layouts it lays its ranges out in (layouts). The entry point calls done once
// it has read its answer off the layout certify returned.
type rangeSearch struct {
	inst   *instance
	mode   schedule.Model
	ep     epochs // epochal times, ordered anew on every range
	ranges []affine.Range

	probe probeFunc
	ws    *lp.Workspace
	lays  *layouts  // the workspace's
	buf   *probeBuf // the honest probe's, reset by its first call
	laid  *rangeLP  // the layout last made, of range laidK
	laidK int
	kept  *rangeLP // the layout locate holds: the next is laid in the other

	tally  stats.SolverTally // hybrid-engine paths of the exact solves
	probes int               // float solves
	solves int               // exact solves
	// lo is the proven lower end: every range below it is exactly
	// infeasible — by the floor to begin with (all of them, for a held
	// deadline below its job's earliest end), by exact solves after.
	lo int
}

// ErrDeadlinesInfeasible reports that no schedule meets every held deadline:
// one falls before its job could end alone, or the search's last range — the
// flow windows as wide as they get — is infeasible.
var ErrDeadlinesInfeasible = errors.New("core: held deadlines are infeasible")

// newSearch sets up the search of Theorem 2 over the jobs' windows. Job j's
// window opens at r_j; it closes at its deadline form d̄_j(F) when it has one
// (dls[j]) and no later than its held deadline D_j when it holds one
// (held[j]): a constant epochal time, the window's hard cap. A nil entry, or
// a nil slice, means none. The entry points differ only there:
//
//   - max weighted flow: every job has d̄_j(F) = o_j + F/w_j, some hold D_j;
//   - BestDeadline: job k has d̄_k(F) = F, the others hold their deadlines;
//   - DeadlineFeasible: no job has a form, so there is no milestone, and the
//     one range is the point F = 0 — System (2).
//
// The horizon closes the windows of the jobs that have no form. The
// milestones are where the forms cross each other and every constant
// epochal time; the floor is flowFloor; and a held deadline its job cannot
// meet even alone proves every range infeasible before any LP (lo = the
// number of ranges), as the LP and its Farkas certificate would.
func newSearch(inst *instance, mode schedule.Model, dls []*affine.Form, held []*big.Rat, probe probeFunc) *rangeSearch {
	return newSearchQ(inst, mode, dls, heldQ(held), probe)
}

// newSearchQ is newSearch with the held deadlines as exact.Q.
func newSearchQ(inst *instance, mode schedule.Model, dls []*affine.Form, held []*exact.Q, probe probeFunc) *rangeSearch {
	ep := newEpochs(inst, dls, held)
	if slices.Contains(ep.due, -1) { // some job has no form
		ep.times = append(ep.times, affine.Const(horizon(inst, ep)))
	}
	ranges := []affine.Range{{Hi: new(exact.Q)}} // the point F = 0
	if slices.Max(ep.due) >= 0 {                 // some job has a form
		ranges = ObjectiveRanges(milestones(ep.times))
	}
	s := newRangeSearch(inst, mode, ep, ranges, flowFloor(inst, dls, mode), probe)
	for j, h := range ep.hard {
		if h >= 0 && ep.times[h].A.Cmp(earliestEnd(inst, j, mode)) < 0 {
			s.lo = len(ranges)
		}
	}
	return s
}

// flowFloor is the single-job bound on the objective: the F at which the
// deadline form of the job worst off even alone reaches its earliest end,
// max_j w_j (r_j + p_j − o_j) over the jobs that have a form (r_k + p_k for
// BestDeadline's F); zero when none has.
func flowFloor(inst *instance, dls []*affine.Form, mode schedule.Model) exact.Q {
	var floor exact.Q
	for j, dl := range dls {
		if dl == nil {
			continue
		}
		if f, _ := dl.Intersection(affine.Const(earliestEnd(inst, j, mode))); f.Cmp(floor) > 0 {
			floor = f
		}
	}
	return floor
}

// newRangeSearch opens a search at floor, a value no feasible objective is
// below: on the leftmost range whose upper end reaches it (of the two ranges a
// milestone is in, the lower), the last range if none does.
func newRangeSearch(inst *instance, mode schedule.Model, ep epochs, ranges []affine.Range, floor exact.Q, probe probeFunc) *rangeSearch {
	seed := sort.Search(len(ranges)-1, func(k int) bool { return ranges[k].Hi.Cmp(floor) >= 0 })
	ws := lp.TakeWorkspace()
	return &rangeSearch{inst: inst, mode: mode, ep: ep, ranges: ranges, probe: probe, ws: ws, lays: layoutsOf(ws), lo: seed}
}

// soloTime is p_j, the least time job j takes with the platform to itself:
// 1/Σ_i 1/c_{i,j} spread over every machine that can run it (divisible),
// min_i c_{i,j} when it may not run on two at once (preemptive). The range LP
// cannot do better — its capacity rows give job j at most (d̄_j − r_j)/c_{i,j}
// of itself on machine i, (5b) at most d̄_j − r_j of machine time in all.
func soloTime(inst *instance, j int, mode schedule.Model) exact.Q {
	var p exact.Q
	for i := 0; i < inst.M(); i++ {
		if !inst.CanRun(i, j) {
			continue
		}
		c := inst.cost[i*inst.N()+j]
		if mode == schedule.Divisible {
			p = p.Add(c.Inv())
		} else if p.Sign() == 0 || c.Cmp(p) < 0 {
			p = c
		}
	}
	if mode == schedule.Divisible {
		p = p.Inv()
	}
	return p
}

// earliestEnd is r_j + p_j: no schedule, and no solution of a range LP,
// completes job j sooner. The search's floor is made of it, and a held
// deadline below it is infeasible whatever else runs.
func earliestEnd(inst *instance, j int, mode schedule.Model) exact.Q {
	return soloTime(inst, j, mode).Add(inst.release[j])
}

// probeFunc answers "is the LP of range k feasible?" approximately: an error,
// or any status but Optimal and Infeasible, means "cannot tell". It is
// (*rangeSearch).floatProbe everywhere outside the tests, which also pass
// liars.
type probeFunc func(s *rangeSearch, k int) (*lp.FloatSolution, error)

// rangeLP lays out the LP of range k in whichever of the two layouts locate
// does not hold, or hands back the layout last made when it is range k's.
func (s *rangeSearch) rangeLP(k int) *rangeLP {
	if s.laid == nil || s.laidK != k {
		r := &s.lays.pair[0]
		if r == s.kept {
			r = &s.lays.pair[1]
		}
		r.lay(s.inst, s.mode, s.ep, s.ranges[k])
		s.laid, s.laidK = r, k
	}
	return s.laid
}

// exact solves range k exactly, from the basis a probe of it ended on (or
// nil); a nil solution means infeasible, which proves every range up to k so.
func (s *rangeSearch) exact(k int, probed *lp.Basis) (*rangeLP, *rangeSolution, error) {
	rl := s.rangeLP(k)
	rl.build(s.ws.Fill())
	sol, err := rl.solveWith(s.ws.Fill(), probed, &s.tally)
	s.solves++
	if err == nil && sol == nil && k >= s.lo {
		s.lo = k + 1
	}
	return rl, sol, err
}

// floatProbe is the honest probe: range k's layout, filled in float64 into
// the search's tableau and minimized there. No lp.Problem is built and
// nothing exact is solved; the objective it reports is F = Lo + F′.
func (s *rangeSearch) floatProbe(k int) (*lp.FloatSolution, error) {
	if s.buf == nil {
		s.buf = s.lays.probe.reset(s.inst, s.ws.Tableau())
	}
	lo := s.rangeLP(k).fillProbe(s.buf)
	sol, err := s.buf.tab.Minimize(fCol)
	if err == nil {
		sol.Objective += lo
	}
	return sol, err
}

// float probes range k; nil means the probe could not tell.
func (s *rangeSearch) float(k int) *lp.FloatSolution {
	s.probes++
	sol, err := s.probe(s, k)
	if err != nil || (sol.Status != lp.Optimal && sol.Status != lp.Infeasible) {
		return nil
	}
	return sol
}

// done hands the workspace back to lp, the layouts with it: the search
// solves no more, and nothing reads the layout it answered on any more.
func (s *rangeSearch) done() {
	lp.ReturnWorkspace(s.ws)
	s.ws, s.lays, s.buf, s.laid, s.kept = nil, nil, nil, nil, nil
}

// locate returns the candidate for the leftmost feasible range: seed, gallop,
// bisect. It asks about the range the floor picked and, while the answer is
// "infeasible", about the ranges 1, 2, 4, … further right, then bisects what
// lies between the last "infeasible" and the first "feasible". The last range
// is assumed feasible and never asked about. A float probe answers; one that
// cannot tell is replaced, for that step, by the exact solve. With the
// candidate comes the probe solution that called it feasible — nil when none
// did (the last range, an exact solve standing in); the layout that probe
// filled, held while the others are laid (kept), is the one the search hands
// out for the candidate next.
func (s *rangeSearch) locate() (int, *lp.FloatSolution, error) {
	lo, hi := s.lo, len(s.ranges)-1
	var at *lp.FloatSolution // the probe that made hi the upper end
	ask := func(k int) error {
		fs := s.float(k)
		feasible := fs != nil && fs.Status == lp.Optimal
		if fs == nil {
			_, sol, err := s.exact(k, nil)
			if err != nil {
				return err
			}
			feasible = sol != nil
		}
		if feasible {
			hi, at, s.kept = k, fs, s.rangeLP(k)
		} else {
			lo = k + 1
		}
		return nil
	}
	// A "feasible" at k makes hi = k, which the next k is past.
	for k, step := lo, 1; k < hi; k, step = k+step, 2*step {
		if err := ask(k); err != nil {
			return 0, nil, err
		}
	}
	for lo < hi {
		if err := ask(lo + (hi-lo)/2); err != nil {
			return 0, nil, err
		}
	}
	if s.kept != nil {
		s.laid, s.laidK = s.kept, lo
	}
	return lo, at, nil
}

// certify proves the leftmost feasible range, starting from the candidate k,
// and returns it with its LP and exact optimum. The first solve is handed the
// basis of the probe that called k feasible (at, nil for none) — the basis the
// engine's own float pass over the same rows would end on, so verifying it
// replaces that pass. The answer at k is accepted iff the exact solve is
// feasible and either its minimum exceeds the range's lower end or every
// lower range is already proven infeasible; otherwise the search walks: right
// past a range proven infeasible, left from a range whose minimum sits on its
// lower end (the range below contains that value, and is the leftmost one the
// reference bisection would report). Walking off the last range, the search
// has proven every range infeasible: ErrDeadlinesInfeasible.
func (s *rangeSearch) certify(k int, at *lp.FloatSolution) (int, *rangeLP, *rangeSolution, error) {
	var probed *lp.Basis
	if at != nil {
		probed = at.Basis
	}
	for k = max(k, s.lo); k < len(s.ranges); {
		rl, sol, err := s.exact(k, probed)
		probed = nil // the walk's other ranges were not probed
		switch {
		case err != nil:
			return 0, nil, nil, err
		case sol == nil:
			k++
		case k == s.lo || sol.F.Cmp(s.ranges[k].Lo) > 0:
			return k, rl, sol, nil
		default:
			k--
		}
	}
	return 0, nil, nil, ErrDeadlinesInfeasible
}

// leftmost locates, then certifies. The layout it returns is the search's
// until done.
func (s *rangeSearch) leftmost() (int, *rangeLP, *rangeSolution, error) {
	k, at, err := s.locate()
	if err != nil {
		return 0, nil, nil, err
	}
	return s.certify(k, at)
}

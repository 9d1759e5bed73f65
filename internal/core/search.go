package core

import (
	"divflow/internal/affine"
	"divflow/internal/intervals"
	"divflow/internal/lp"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/stats"
)

// rangeSearch finds the leftmost feasible range of a sequence of objective
// ranges over which feasibility is monotone (a feasible F makes every
// F' >= F feasible): the binary search of Theorem 2, shared by every solver
// that minimizes an objective the epochal order depends on.
//
// It locates with float probes and proves with one exact solve. A range LP
// on [F_k, F_{k+1}] whose exact minimum lies strictly above F_k is by itself
// a complete optimality proof: were any lower F feasible, F_k would be too,
// and the LP would have returned it. So the probes need no exactness — they
// only choose where the certifying solve happens — and a wrong, stalled or
// lying probe costs extra exact solves, never the result.
type rangeSearch struct {
	inst   *model.Instance
	mode   schedule.Model
	times  []affine.Form  // epochal times, ordered anew on every range
	dls    []*affine.Form // per-job deadline form, nil = none
	ranges []affine.Range
	warm   *lp.Basis // offered to every exact solve

	probe probeFunc

	tally  stats.SolverTally // hybrid-engine paths of the exact solves
	probes int               // float solves
	solves int               // exact solves
	// lo is the proven lower end: every range below it is exactly
	// infeasible.
	lo int
}

// probeFunc answers "is this range LP feasible?" approximately: an error, or
// any status but Optimal and Infeasible, means "cannot tell". It is
// lp.SolveFloat everywhere outside the tests, which also pass liars.
type probeFunc func(*lp.Problem) (*lp.FloatSolution, error)

// rangeLP returns the (unbuilt) LP of range k.
func (s *rangeSearch) rangeLP(k int) *rangeLP {
	rg := s.ranges[k]
	return newRangeLP(s.inst, s.mode, intervals.Build(s.times, rg.Interior()), s.dls, rg)
}

// exact solves range k exactly; a nil solution means infeasible, which
// proves every range up to k infeasible.
func (s *rangeSearch) exact(k int) (*rangeLP, *rangeSolution, error) {
	rl := s.rangeLP(k)
	sol, err := rl.solveWith(s.warm, &s.tally)
	s.solves++
	if err == nil && sol == nil && k >= s.lo {
		s.lo = k + 1
	}
	return rl, sol, err
}

// float probes range k; nil means the probe could not tell.
func (s *rangeSearch) float(k int) *lp.FloatSolution {
	rl := s.rangeLP(k)
	rl.build()
	s.probes++
	sol, err := s.probe(rl.prob)
	if err != nil || (sol.Status != lp.Optimal && sol.Status != lp.Infeasible) {
		return nil
	}
	return sol
}

// locate bisects the ranges with float probes and returns the candidate for
// the leftmost feasible one. A probe that cannot tell is replaced, for that
// step, by the exact solve.
func (s *rangeSearch) locate() (int, error) {
	lo, hi := 0, len(s.ranges)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		var feasible bool
		if fs := s.float(mid); fs != nil {
			feasible = fs.Status == lp.Optimal
		} else {
			_, sol, err := s.exact(mid)
			if err != nil {
				return 0, err
			}
			feasible = sol != nil
		}
		if feasible {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// certify proves the leftmost feasible range, starting from the candidate k,
// and returns it with its LP and exact optimum. The answer at k is accepted
// iff the exact solve is feasible and either its minimum exceeds the range's
// lower end or every lower range is already proven infeasible; otherwise the
// search walks: right past a range proven infeasible, left from a range whose
// minimum sits on its lower end (the range below contains that value, and is
// the leftmost one the reference bisection would report). A nil solution
// means no range is feasible.
func (s *rangeSearch) certify(k int) (int, *rangeLP, *rangeSolution, error) {
	k = max(k, s.lo)
	for {
		rl, sol, err := s.exact(k)
		switch {
		case err != nil:
			return 0, nil, nil, err
		case sol == nil:
			if k == len(s.ranges)-1 {
				return 0, nil, nil, nil
			}
			k++
		case k == s.lo || sol.F.Cmp(s.ranges[k].Lo) > 0:
			return k, rl, sol, nil
		default:
			k--
		}
	}
}

// leftmost locates, then certifies.
func (s *rangeSearch) leftmost() (int, *rangeLP, *rangeSolution, error) {
	k, err := s.locate()
	if err != nil {
		return 0, nil, nil, err
	}
	return s.certify(k)
}

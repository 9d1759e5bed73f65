package core

import (
	"divflow/internal/affine"
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
// lying probe costs extra exact solves, never the result. That is also why a
// probe may skip everything the proof needs: it fills the range's layout in
// float64 straight into one tableau the search keeps (rangeLP.fillProbe),
// building no lp.Problem and no big.Rat coefficient.
type rangeSearch struct {
	inst   *model.Instance
	mode   schedule.Model
	ep     epochs // epochal times, ordered anew on every range
	ranges []affine.Range
	warm   *lp.Basis // offered to every exact solve

	probe probeFunc
	buf   *probeBuf // the honest probe's tableau, made by its first call

	tally  stats.SolverTally // hybrid-engine paths of the exact solves
	probes int               // float solves
	solves int               // exact solves
	// lo is the proven lower end: every range below it is exactly
	// infeasible.
	lo int
}

// probeFunc answers "is the LP of range k feasible?" approximately: an error,
// or any status but Optimal and Infeasible, means "cannot tell". It is
// (*rangeSearch).floatProbe everywhere outside the tests, which also pass
// liars.
type probeFunc func(s *rangeSearch, k int) (*lp.FloatSolution, error)

// rangeLP lays out the LP of range k.
func (s *rangeSearch) rangeLP(k int) *rangeLP {
	return newRangeLP(s.inst, s.mode, s.ep, s.ranges[k])
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

// floatProbe is the honest probe: range k's layout, filled in float64 into
// the search's one tableau and minimized there. No lp.Problem is built and
// nothing exact is solved; the objective it reports is F = Lo + F′.
func (s *rangeSearch) floatProbe(k int) (*lp.FloatSolution, error) {
	if s.buf == nil {
		s.buf = newProbeBuf(s.inst)
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

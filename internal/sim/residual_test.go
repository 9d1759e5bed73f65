package sim

import (
	"slices"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/schedule"
)

// TestResidualRejectsBadSnapshot holds the one residual construction and
// the re-solve on it to an error, never a panic, on a view no offline problem
// can be made of: a job of zero weight, an eligible machine of zero cost, a
// job no machine runs, no jobs at all, or a job whose flow origin is after
// Now. OnlineMWF, handed such a view, idles and reports the failure (a view
// with no job is simply idle).
func TestResidualRejectsBadSnapshot(t *testing.T) {
	one, two := exact.Int(1), exact.Int(2)
	costs := func(c [][]exact.Q) CostFunc {
		return func(i, id int) (exact.Q, bool) {
			v := c[i][id]
			return v, v.Sign() >= 0
		}
	}
	ineligible := exact.Int(-1) // the cost func's marker: not ok
	jobs := func() []JobState {
		return []JobState{
			{ID: 0, Release: one, Weight: one, Remaining: one},
			{ID: 1, Release: two, Weight: two, Remaining: exact.New(1, 2)},
		}
	}
	fine := [][]exact.Q{{one, two}, {two, ineligible}}
	for _, tc := range []struct {
		name string
		snap Snapshot
	}{
		{"zero weight", Snapshot{Now: two, M: 2, Cost: costs(fine), Jobs: func() []JobState { j := jobs(); j[1].Weight = exact.Q{}; return j }()}},
		// Job 1 also runs on machine 1: only the zero cost is wrong.
		{"zero eligible cost", Snapshot{Now: two, M: 2, Cost: costs([][]exact.Q{{one, exact.Q{}}, {two, one}}), Jobs: jobs()}},
		{"a job no machine runs", Snapshot{Now: two, M: 2, Cost: costs([][]exact.Q{{one, ineligible}, {two, ineligible}}), Jobs: jobs()}},
		{"no jobs", Snapshot{Now: two, M: 2, Cost: costs(fine)}},
		{"origin after Now", Snapshot{Now: one, M: 2, Cost: costs(fine), Jobs: jobs()}},
	} {
		r, err := tc.snap.Residual()
		if err == nil {
			_, err = r.MinMaxWeightedFlow(schedule.Divisible)
		}
		if err == nil {
			t.Errorf("%s: the residual re-solve answered no error", tc.name)
		}
		p := NewOnlineMWFLazy()
		alloc := p.Assign(&tc.snap)
		if slices.ContainsFunc(alloc.MachineJob, func(id int) bool { return id >= 0 }) {
			t.Errorf("%s: OnlineMWF allocated %v", tc.name, alloc.MachineJob)
		}
		if (p.Err() == nil) != (len(tc.snap.Jobs) == 0) {
			t.Errorf("%s: OnlineMWF reports %v", tc.name, p.Err())
		}
	}
	good := Snapshot{Now: two, M: 2, Cost: costs(fine), Jobs: jobs()}
	p := NewOnlineMWFLazy()
	if alloc := p.Assign(&good); p.Err() != nil || !slices.ContainsFunc(alloc.MachineJob, func(id int) bool { return id >= 0 }) {
		t.Errorf("the well-formed view: %v, allocation %v", p.Err(), alloc.MachineJob)
	}
}

package core

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"divflow/internal/affine"
	"divflow/internal/exact"
	"divflow/internal/lp"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/workload"
)

// probeSearch is one search whose every range the probe tests walk, with the
// instance it searches; a BestDeadline search comes with the job (k >= 0) and
// deadlines it was made for.
type probeSearch struct {
	label     string
	s         *rangeSearch
	inst      *model.Instance
	k         int
	deadlines []*big.Rat
}

// probeSearches lists the searches of the differential suite (unrelated,
// equal and stretch weights, origins before releases; both modes) and, on
// instances with deadlines an optimal schedule meets with a fifth to spare,
// BestDeadline's own.
func probeSearches(t *testing.T) []probeSearch {
	t.Helper()
	var out []probeSearch
	for _, tc := range searchCases(t) {
		for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
			q := newInstance(tc.inst)
			out = append(out, probeSearch{fmt.Sprintf("%s, %v", tc.label, mode),
				newSearch(q, mode, flowDeadlines(q, tc.origins), nil, honestProbe), tc.inst, -1, nil})
		}
	}
	for seed := int64(0); seed < 6; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 3 + int(seed%4)
		cfg.Unrelated = seed%2 == 1
		inst := workload.MustGenerate(cfg)
		mode := schedule.Divisible
		if seed%3 == 2 {
			mode = schedule.Preemptive
		}
		opt, err := minMaxWeightedFlow(inst, nil, nil, mode, honestProbe)
		if err != nil {
			t.Fatal(err)
		}
		deadlines := make([]*big.Rat, inst.N())
		for j := range deadlines {
			if j%3 == 2 {
				continue
			}
			d := new(big.Rat).Quo(opt.Objective, inst.Jobs[j].Weight)
			d.Mul(d, r(6, 5))
			deadlines[j] = d.Add(d, inst.Jobs[j].Release)
		}
		for k := range inst.Jobs {
			// BestDeadline's search: job k's deadline is the form F, the
			// others' are held.
			dls, held := make([]*affine.Form, inst.N()), slices.Clone(deadlines)
			f := affine.New(exact.Q{}, exact.Int(1))
			dls[k], held[k] = &f, nil
			out = append(out, probeSearch{fmt.Sprintf("best deadline seed %d job %d, %v", seed, k, mode),
				newSearch(newInstance(inst), mode, dls, held, honestProbe), inst, k, deadlines})
		}
	}
	return out
}

// parentCounts is Result.Probes and Result.LPSolves of the differential
// suite's instances under the honest probe, in searchCases order with the
// divisible model before the preemptive, as the parent of the float-native
// probe produced them (its probes went through an lp.Problem and the
// unshifted standard form). The new probe answers the same questions, so it
// steers every search the same way.
var parentCounts = [][2]int{
	{2, 1}, {2, 1}, {2, 1}, {2, 1}, // seed 0, its residual
	{3, 1}, {3, 1}, {2, 1}, {2, 1},
	{3, 1}, {4, 1}, {2, 1}, {2, 1},
	{4, 1}, {4, 1}, {2, 1}, {2, 1},
	{2, 1}, {2, 1}, {2, 1}, {2, 1},
	{4, 1}, {3, 1}, {2, 1}, {2, 1},
	{3, 1}, {4, 1}, {2, 1}, {2, 1},
	{4, 1}, {5, 1}, {4, 1}, {4, 1},
	{2, 1}, {2, 1}, {2, 1}, {2, 1},
	{3, 1}, {3, 1}, {2, 1}, {2, 1}, // seed 9, its residual
}

// recordedCeiling holds a run of the suite to parentCounts, which the search
// that bisected from the middle produced: one exact solve as recorded, never
// more probes than recorded on any instance, and — the search now starting
// at its floor — at most half of them over the suite.
type recordedCeiling struct{ n, probes, recorded int }

func (c *recordedCeiling) check(t *testing.T, label string, got *Result) {
	t.Helper()
	want := parentCounts[c.n]
	if got.Probes > want[0] || got.LPSolves != want[1] {
		t.Errorf("%s: %d probes and %d exact solves, recorded %d and %d",
			label, got.Probes, got.LPSolves, want[0], want[1])
	}
	c.n++
	c.probes += got.Probes
	c.recorded += want[0]
}

func (c *recordedCeiling) done(t *testing.T) {
	t.Helper()
	if c.n != len(parentCounts) || 2*c.probes > c.recorded {
		t.Errorf("%d probes over %d searches, want at most half of the %d recorded over %d",
			c.probes, c.n, c.recorded, len(parentCounts))
	}
}

// TestProbeAgreesWithExact holds the honest probe to the proof, range by
// range: on every range of every search its status is the feasibility the
// exact solve reports and, where feasible, its objective Lo + F′ is the exact
// minimum to float tolerance and the basis it ended on is the exact optimum's
// — handed that basis, the exact solve verifies it with no pivot and no float
// pass (lp.MethodWarmVerified) and returns the X, F′ included, the solve handed
// nothing returns. A basis is only tried when row count, column count and
// first artificial agree, so a hit on every feasible range also says the exact
// fill writes the probe's LP: no >= row, no row negated. Agreeing everywhere,
// the probe costs each instance one exact solve and no more probes than
// recorded (recordedCeiling).
func TestProbeAgreesWithExact(t *testing.T) {
	verified := 0
	for _, ps := range probeSearches(t) {
		for k, rg := range ps.s.ranges {
			fs := ps.s.float(k)
			if fs == nil {
				t.Fatalf("%s, range %d %v: the probe could not tell", ps.label, k, rg)
			}
			rl := ps.s.rangeLP(k)
			p := rangeProblem(rl)
			cold, err := lp.SolveHybrid(p)
			if err != nil {
				t.Fatal(err)
			}
			if feasible := cold.Status == lp.Optimal; feasible != (fs.Status == lp.Optimal) {
				t.Fatalf("%s, range %d %v: probe says %v, the exact solve %v", ps.label, k, rg, fs.Status, cold.Status)
			} else if !feasible {
				continue
			}
			want := rg.Lo.Add(cold.X[fCol]).Float64()
			if math.Abs(fs.Objective-want) > 1e-6*math.Abs(want) {
				t.Errorf("%s, range %d %v: probe minimum %v, exact %v", ps.label, k, rg, fs.Objective, want)
			}
			handed, err := lp.SolveHybridWarm(p, fs.Basis)
			if err != nil {
				t.Fatal(err)
			}
			if handed.Method != lp.MethodWarmVerified {
				t.Fatalf("%s, range %d %v: the probe's basis settled the exact solve as %v", ps.label, k, rg, handed.Method)
			}
			verified++
			for c, x := range handed.X {
				if x.Cmp(cold.X[c]) != 0 {
					t.Fatalf("%s, range %d %v: column %d is %v from the probe's basis, %v from the engine's own pass",
						ps.label, k, rg, c, x, cold.X[c])
				}
			}
		}
	}
	t.Logf("%d feasible ranges settled from their probe's basis", verified)
	if verified < 200 {
		t.Errorf("%d feasible ranges verified from their probe's basis, want the suite's two hundred and more", verified)
	}
	var counts recordedCeiling
	for _, tc := range searchCases(t) {
		for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
			got, err := minMaxWeightedFlow(tc.inst, tc.origins, nil, mode, honestProbe)
			if err != nil {
				t.Fatal(err)
			}
			counts.check(t, fmt.Sprintf("%s, %v", tc.label, mode), got)
		}
	}
	counts.done(t)
}

// TestProbeFillNegatesNoRow is the invariant the shifted objective rests on,
// exactly: every interval's length at the range's lower end — the right-hand
// side both fills write — is >= 0 over big.Rat (zero where intervals collapse
// on a milestone), so every capacity row keeps its <= and its slack, the
// filled tableau's artificials are the n completion rows' and no others, in
// both modes — and a range with no upper end has no row bounding F′. The exact
// fill has the same rows, infeasible ranges included (where it is feasible,
// TestProbeAgreesWithExact holds the two to the same basis).
func TestProbeFillNegatesNoRow(t *testing.T) {
	collapsed, unbounded := 0, 0
	for _, ps := range probeSearches(t) {
		buf := new(probeBuf).reset(ps.s.inst, new(lp.FloatTableau))
		for k, rg := range ps.s.ranges {
			rl := ps.s.rangeLP(k)
			for i, iv := range rl.ivs {
				switch iv.Length().Eval(rg.Lo).Sign() {
				case -1:
					t.Fatalf("%s, range %d %v: interval %d has length %v at the lower end",
						ps.label, k, rg, i, iv.Length().Eval(rg.Lo))
				case 0:
					collapsed++
				}
			}
			rl.fillProbe(buf)
			if got, n := buf.tab.Artificials(), ps.s.inst.N(); got != n {
				t.Errorf("%s, range %d %v: %d artificial columns for %d completion rows", ps.label, k, rg, got, n)
			}
			wantRows := len(rl.rows) + 1
			if rg.Hi == nil {
				wantRows--
				unbounded++
			}
			if len(rl.sense) != wantRows {
				t.Errorf("%s, range %d %v: %d tableau rows for %d layout rows", ps.label, k, rg, len(rl.sense), len(rl.rows))
			}
			if p := rangeProblem(rl); p.NumRows() != wantRows || p.NumVars() != rl.numVars {
				t.Errorf("%s, range %d %v: the exact fill has %d rows over %d columns, the probe's %d over %d",
					ps.label, k, rg, p.NumRows(), p.NumVars(), wantRows, rl.numVars)
			}
		}
	}
	if collapsed == 0 || unbounded == 0 {
		t.Errorf("%d collapsed intervals and %d unbounded ranges seen, want both covered", collapsed, unbounded)
	}
}

// TestProbeMagnitudesFloat64CannotHold scales every weight by 10^400, far
// outside float64: milestones and range widths convert to +Inf, deadline
// slopes to 0. A probe handed such a coefficient must say it cannot tell —
// never run the float simplex over non-finite entries — and one that can
// still be filled may answer wrongly; either way the exact solves stand in,
// and the result is the unscaled instance's, scaled. (The seed is one whose
// optimal vertex is the same whichever path the exact engine takes to it: the
// hybrid engine's own float pass is as blind here, and falls back.)
func TestProbeMagnitudesFloat64CannotHold(t *testing.T) {
	cfg := workload.Default()
	cfg.Seed = 7
	cfg.Jobs = 8
	cfg.Machines = 3
	inst := workload.MustGenerate(cfg)
	inst.WeightsForStretch()
	huge := inst.Clone()
	scale := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(400), nil))
	for j := range huge.Jobs {
		huge.Jobs[j].Weight = new(big.Rat).Mul(huge.Jobs[j].Weight, scale)
	}
	for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
		want, err := minMaxWeightedFlow(inst, nil, nil, mode, honestProbe)
		if err != nil {
			t.Fatal(err)
		}
		got, err := minMaxWeightedFlow(huge, nil, nil, mode, honestProbe)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if scaled := new(big.Rat).Mul(want.Objective, scale); got.Objective.Cmp(scaled) != 0 {
			t.Errorf("%v: objective %v, want 10^400 times %v", mode, got.Objective.FloatString(3), want.Objective)
		}
		if len(got.Schedule.Pieces) != len(want.Schedule.Pieces) {
			t.Fatalf("%v: %d schedule pieces, the unscaled instance has %d", mode, len(got.Schedule.Pieces), len(want.Schedule.Pieces))
		}
		for i, p := range got.Schedule.Pieces {
			q := want.Schedule.Pieces[i]
			if p.Machine != q.Machine || p.Job != q.Job || p.Start.Cmp(q.Start) != 0 ||
				p.End.Cmp(q.End) != 0 || p.Fraction.Cmp(q.Fraction) != 0 {
				t.Fatalf("%v: piece %d = %+v, unscaled %+v", mode, i, p, q)
			}
		}
		if got.Probes == 0 || got.LPSolves <= want.LPSolves {
			t.Errorf("%v: %d probes and %d exact solves; probes that cannot tell should have cost exact solves (unscaled: %d)",
				mode, got.Probes, got.LPSolves, want.LPSolves)
		}
		// The first range's width is a milestone: +Inf as a float64.
		q := newInstance(huge)
		s := newSearch(q, mode, flowDeadlines(q, nil), nil, honestProbe)
		if fs, err := s.floatProbe(0); err == nil {
			t.Errorf("%v: probe of %v answered %+v over a non-finite bound", mode, s.ranges[0], fs)
		}
	}
}

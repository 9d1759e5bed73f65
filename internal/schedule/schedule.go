// Package schedule represents the output of the offline solvers: a set of
// pieces, each assigning a fraction of a job to a machine over a time
// window, together with exact validators for the two execution models of
// RR-5386 (divisible load, and preemption without divisibility) and the
// metrics the paper discusses (makespan, flow, weighted flow, stretch).
package schedule

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"divflow/internal/model"
)

// Piece is a maximal run of one job on one machine.
type Piece struct {
	Machine int
	Job     int
	Start   *big.Rat
	End     *big.Rat
	// Fraction is the share of the whole job completed by this piece. In
	// both execution models machines run jobs at full speed, so Fraction
	// must equal (End − Start) / c_{machine,job}.
	Fraction *big.Rat
}

// Duration returns End − Start.
func (p *Piece) Duration() *big.Rat { return new(big.Rat).Sub(p.End, p.Start) }

// Schedule is an executable plan for an instance.
type Schedule struct {
	Pieces []Piece
}

// Add appends a piece; zero-duration pieces are dropped.
func (s *Schedule) Add(machine, job int, start, end, fraction *big.Rat) {
	if start.Cmp(end) >= 0 || fraction.Sign() == 0 {
		return
	}
	s.Pieces = append(s.Pieces, Piece{
		Machine:  machine,
		Job:      job,
		Start:    new(big.Rat).Set(start),
		End:      new(big.Rat).Set(end),
		Fraction: new(big.Rat).Set(fraction),
	})
}

// Completions returns C_j for every job: the latest piece end, or nil for a
// job with no piece.
func (s *Schedule) Completions(n int) []*big.Rat {
	out := make([]*big.Rat, n)
	for i := range s.Pieces {
		p := &s.Pieces[i]
		if out[p.Job] == nil || p.End.Cmp(out[p.Job]) > 0 {
			out[p.Job] = new(big.Rat).Set(p.End)
		}
	}
	return out
}

// Makespan returns max_j C_j (zero for an empty schedule).
func (s *Schedule) Makespan() *big.Rat {
	ms := new(big.Rat)
	for i := range s.Pieces {
		if s.Pieces[i].End.Cmp(ms) > 0 {
			ms.Set(s.Pieces[i].End)
		}
	}
	return ms
}

// Flows returns F_j = C_j − r_j for every job of the instance.
func (s *Schedule) Flows(inst *model.Instance) ([]*big.Rat, error) {
	cs := s.Completions(inst.N())
	out := make([]*big.Rat, inst.N())
	for j, c := range cs {
		if c == nil {
			return nil, fmt.Errorf("schedule: job %d has no piece", j)
		}
		out[j] = new(big.Rat).Sub(c, inst.Jobs[j].Release)
	}
	return out, nil
}

// MaxWeightedFlow returns max_j w_j (C_j − r_j).
func (s *Schedule) MaxWeightedFlow(inst *model.Instance) (*big.Rat, error) {
	flows, err := s.Flows(inst)
	if err != nil {
		return nil, err
	}
	best := new(big.Rat)
	for j, f := range flows {
		wf := new(big.Rat).Mul(inst.Jobs[j].Weight, f)
		if j == 0 || wf.Cmp(best) > 0 {
			best = wf
		}
	}
	return best, nil
}

// MaxStretch returns max_j (C_j − r_j)/W_j; it requires job sizes.
func (s *Schedule) MaxStretch(inst *model.Instance) (*big.Rat, error) {
	flows, err := s.Flows(inst)
	if err != nil {
		return nil, err
	}
	best := new(big.Rat)
	for j, f := range flows {
		if inst.Jobs[j].Size == nil || inst.Jobs[j].Size.Sign() <= 0 {
			return nil, fmt.Errorf("schedule: job %d has no Size; stretch undefined", j)
		}
		st := new(big.Rat).Quo(f, inst.Jobs[j].Size)
		if j == 0 || st.Cmp(best) > 0 {
			best = st
		}
	}
	return best, nil
}

// SumFlow returns Σ_j F_j.
func (s *Schedule) SumFlow(inst *model.Instance) (*big.Rat, error) {
	flows, err := s.Flows(inst)
	if err != nil {
		return nil, err
	}
	sum := new(big.Rat)
	for _, f := range flows {
		sum.Add(sum, f)
	}
	return sum, nil
}

// byStart sorts piece indices by start time.
func (s *Schedule) sortedByStart(idx []int) {
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := &s.Pieces[idx[a]], &s.Pieces[idx[b]]
		if c := pa.Start.Cmp(pb.Start); c != 0 {
			return c < 0
		}
		return pa.End.Cmp(pb.End) < 0
	})
}

// String renders a per-machine Gantt-like listing.
func (s *Schedule) String() string {
	byMachine := map[int][]int{}
	maxM := -1
	for i := range s.Pieces {
		m := s.Pieces[i].Machine
		byMachine[m] = append(byMachine[m], i)
		if m > maxM {
			maxM = m
		}
	}
	var b strings.Builder
	for m := 0; m <= maxM; m++ {
		fmt.Fprintf(&b, "M%d:", m)
		idx := byMachine[m]
		s.sortedByStart(idx)
		for _, i := range idx {
			p := &s.Pieces[i]
			fmt.Fprintf(&b, " J%d[%s,%s)", p.Job, p.Start.RatString(), p.End.RatString())
		}
		b.WriteString("\n")
	}
	return b.String()
}

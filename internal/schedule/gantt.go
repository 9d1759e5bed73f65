package schedule

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// Gantt renders an ASCII Gantt chart of the schedule, one row per machine,
// `width` character cells spanning [0, makespan]. Each cell shows the job
// occupying the majority of that cell's time slice on that machine ('0'-'9'
// then 'a'-'z' by job index, '.' for idle, '#' for jobs beyond index 35).
// Useful for eyeballing solver output in examples and the CLI.
func (s *Schedule) Gantt(width int) string {
	if width <= 0 {
		width = 60
	}
	ms := s.Makespan()
	if ms.Sign() == 0 || len(s.Pieces) == 0 {
		return "(empty schedule)\n"
	}
	maxMachine := 0
	for i := range s.Pieces {
		if s.Pieces[i].Machine > maxMachine {
			maxMachine = s.Pieces[i].Machine
		}
	}
	msF, _ := ms.Float64()
	cell := msF / float64(width)

	// For each machine, collect pieces sorted by start.
	byMachine := make([][]*Piece, maxMachine+1)
	for i := range s.Pieces {
		p := &s.Pieces[i]
		byMachine[p.Machine] = append(byMachine[p.Machine], p)
	}
	var b strings.Builder
	for m := 0; m <= maxMachine; m++ {
		pieces := byMachine[m]
		sort.Slice(pieces, func(a, c int) bool { return pieces[a].Start.Cmp(pieces[c].Start) < 0 })
		row := make([]byte, width)
		for k := range row {
			row[k] = '.'
		}
		for k := 0; k < width; k++ {
			lo := float64(k) * cell
			hi := lo + cell
			// Find the piece covering the majority of [lo, hi).
			bestJob, bestCover := -1, 0.0
			for _, p := range pieces {
				ps, _ := p.Start.Float64()
				pe, _ := p.End.Float64()
				cover := minF(pe, hi) - maxF(ps, lo)
				if cover > bestCover {
					bestCover = cover
					bestJob = p.Job
				}
			}
			if bestJob >= 0 && bestCover > cell/2 {
				row[k] = jobGlyph(bestJob)
			}
		}
		fmt.Fprintf(&b, "M%-2d |%s|\n", m, row)
	}
	fmt.Fprintf(&b, "    0%sT=%s\n", strings.Repeat(" ", width-len(ms.RatString())-1), ms.RatString())
	return b.String()
}

func jobGlyph(j int) byte {
	switch {
	case j < 10:
		return byte('0' + j)
	case j < 36:
		return byte('a' + j - 10)
	default:
		return '#'
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TotalBusyTime returns the sum of all piece durations (machine-seconds of
// useful work), a utilization building block.
func (s *Schedule) TotalBusyTime() *big.Rat {
	total := new(big.Rat)
	for i := range s.Pieces {
		total.Add(total, s.Pieces[i].Duration())
	}
	return total
}

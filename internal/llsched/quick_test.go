package llsched

import (
	"math/big"
	"sort"
	"testing"
	"testing/quick"
)

// TestDecomposeQuick is a testing/quick property: for any small matrix of
// bounded non-negative rationals, Decompose with window = max line sum
// produces an overlap-free timetable that schedules exactly T[i][j] time
// for every pair.
func TestDecomposeQuick(t *testing.T) {
	type entry struct {
		Num uint8
		Den uint8
	}
	property := func(rows [3][4]entry, startNum uint8) bool {
		T := make([][]*big.Rat, 3)
		for i := range T {
			T[i] = make([]*big.Rat, 4)
			for j := range T[i] {
				den := int64(rows[i][j].Den%4) + 1
				num := int64(rows[i][j].Num % 8)
				T[i][j] = big.NewRat(num, den)
			}
		}
		window := maxLineSum(T)
		if window.Sign() == 0 {
			return true
		}
		start := big.NewRat(int64(startNum%16), 1)
		pieces, err := decompose(T, window, start)
		if err != nil {
			return false
		}
		return decompositionValid(T, window, start, pieces)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// decompositionValid re-checks the three defining properties without
// failing the test framework (quick wants a bool).
func decompositionValid(T [][]*big.Rat, window, start *big.Rat, pieces []Piece) bool {
	m, n := len(T), len(T[0])
	total := make([][]*big.Rat, m)
	for i := range total {
		total[i] = make([]*big.Rat, n)
		for j := range total[i] {
			total[i][j] = new(big.Rat)
		}
	}
	end := new(big.Rat).Add(start, window)
	for _, p := range pieces {
		ps, pe := p.Start.Rat(), p.End.Rat()
		if ps.Cmp(start) < 0 || pe.Cmp(end) > 0 || ps.Cmp(pe) >= 0 {
			return false
		}
		total[p.Machine][p.Job].Add(total[p.Machine][p.Job], new(big.Rat).Sub(pe, ps))
	}
	for i := range T {
		for j := range T[i] {
			if total[i][j].Cmp(T[i][j]) != 0 {
				return false
			}
		}
	}
	overlapFree := func(key func(Piece) int, groups int) bool {
		byG := make([][]Piece, groups)
		for _, p := range pieces {
			byG[key(p)] = append(byG[key(p)], p)
		}
		for _, ps := range byG {
			sort.Slice(ps, func(a, b int) bool { return ps[a].Start.Rat().Cmp(ps[b].Start.Rat()) < 0 })
			for k := 1; k < len(ps); k++ {
				if ps[k].Start.Rat().Cmp(ps[k-1].End.Rat()) < 0 {
					return false
				}
			}
		}
		return true
	}
	return overlapFree(func(p Piece) int { return p.Machine }, m) &&
		overlapFree(func(p Piece) int { return p.Job }, n)
}

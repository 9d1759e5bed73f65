// Package llsched implements the preemptive-schedule reconstruction scheme
// of Lawler and Labetoulle (JACM 1978), following Gonzalez and Sahni (JACM
// 1976), used by Section 4.4 of RR-5386: given the processing times
// T[i][j] that machine i must dedicate to job j inside a window of length L,
// with every row sum (machine load) and column sum (job time) at most L,
// build an explicit timetable in which no machine runs two jobs at once and
// no job runs on two machines at once.
//
// The algorithm repeatedly extracts a "decrementing set": a matching on the
// positive entries of T that saturates every tight line (row or column whose
// sum equals the remaining window length L'). All matched pairs run in
// parallel for a duration δ chosen so that either a matched entry is
// exhausted or an uncovered line becomes tight; this yields at most
// (#positive entries + #rows + #cols) rounds, each requiring one bipartite
// matching. Such a matching always exists: a Hall-condition argument bounds
// the mass of any set of tight rows by L' times the number of columns it
// touches, and the Mendelsohn–Dulmage theorem combines row- and
// column-saturating matchings.
//
// Every time is an exact.Q, the word-sized rational the solvers compute with;
// the caller converts a piece to *big.Rat where it enters a schedule.
package llsched

import (
	"errors"
	"fmt"

	"divflow/internal/exact"
)

// Piece is one scheduled run: machine Machine processes job Job during
// [Start, End).
type Piece struct {
	Machine int
	Job     int
	Start   exact.Q
	End     exact.Q
}

// ErrInfeasible is returned when a row or column sum exceeds the window
// length, i.e. the input violates constraints (5b)/(5c).
var ErrInfeasible = errors.New("llsched: a line sum exceeds the window length")

// Decompose builds a preemptive timetable for the processing-time matrix T
// (T[i][j] = time machine i spends on job j) inside the window
// [start, start+window). It returns the pieces in chronological order of
// their start times. A zero entry is a pair that never runs. T is not
// modified.
func Decompose(T [][]exact.Q, window, start exact.Q) ([]Piece, error) {
	m := len(T)
	if m == 0 {
		return nil, nil
	}
	n := len(T[0])
	// Work on a copy; track remaining window length.
	w := make([][]exact.Q, m)
	for i := range T {
		if len(T[i]) != n {
			return nil, fmt.Errorf("llsched: ragged matrix row %d", i)
		}
		for j := range T[i] {
			if T[i][j].Sign() < 0 {
				return nil, fmt.Errorf("llsched: negative entry T[%d][%d]", i, j)
			}
		}
		w[i] = append([]exact.Q(nil), T[i]...)
	}
	remaining, now := window, start

	var out []Piece
	for round := 0; ; round++ {
		if round > len(w)*n+m+n+1 {
			return nil, errors.New("llsched: internal error: decomposition did not terminate")
		}
		rowSum, colSum := lineSums(w)
		if !anyPositive(rowSum) && !anyPositive(colSum) {
			return out, nil
		}
		for i := range rowSum {
			if rowSum[i].Cmp(remaining) > 0 {
				return nil, fmt.Errorf("%w (row %d: %v > %v)", ErrInfeasible, i, rowSum[i], remaining)
			}
		}
		for j := range colSum {
			if colSum[j].Cmp(remaining) > 0 {
				return nil, fmt.Errorf("%w (col %d: %v > %v)", ErrInfeasible, j, colSum[j], remaining)
			}
		}
		match, err := decrementingSet(w, rowSum, colSum, remaining)
		if err != nil {
			return nil, err
		}
		// δ = min(matched entries; slack of lines not covered by the
		// matching; remaining window).
		delta := remaining
		lower := func(x exact.Q) {
			if x.Cmp(delta) < 0 {
				delta = x
			}
		}
		coveredRow := make([]bool, m)
		coveredCol := make([]bool, n)
		for i, j := range match {
			if j < 0 {
				continue
			}
			coveredRow[i] = true
			coveredCol[j] = true
			lower(w[i][j])
		}
		for i := range rowSum {
			if !coveredRow[i] && rowSum[i].Sign() > 0 {
				lower(remaining.Sub(rowSum[i]))
			}
		}
		for j := range colSum {
			if !coveredCol[j] && colSum[j].Sign() > 0 {
				lower(remaining.Sub(colSum[j]))
			}
		}
		if delta.Sign() <= 0 {
			return nil, errors.New("llsched: internal error: non-positive step")
		}
		end := now.Add(delta)
		for i, j := range match {
			if j < 0 {
				continue
			}
			out = append(out, Piece{Machine: i, Job: j, Start: now, End: end})
			w[i][j] = w[i][j].Sub(delta)
		}
		now = end
		remaining = remaining.Sub(delta)
	}
}

func lineSums(w [][]exact.Q) (rows, cols []exact.Q) {
	rows = make([]exact.Q, len(w))
	cols = make([]exact.Q, len(w[0]))
	for i := range w {
		for j := range w[i] {
			if w[i][j].Sign() > 0 {
				rows[i] = rows[i].Add(w[i][j])
				cols[j] = cols[j].Add(w[i][j])
			}
		}
	}
	return rows, cols
}

func anyPositive(xs []exact.Q) bool {
	for _, x := range xs {
		if x.Sign() > 0 {
			return true
		}
	}
	return false
}

// decrementingSet returns a matching (match[i] = job matched to machine i,
// or -1) over the positive entries of w that saturates every tight row and
// every tight column (sum == remaining).
//
// Saturation is achieved by alternating-path searches in the spirit of the
// Mendelsohn–Dulmage theorem. A plain Kuhn augmentation is not enough: a
// maximum matching may cover a non-tight column instead of a tight one at
// equal cardinality. The search from an unsaturated tight vertex therefore
// accepts two terminal moves: the classic augmentation (path ends at an
// unmatched vertex of the opposite side) and an exchange that re-matches the
// path while dropping the match of a NON-tight vertex of the same side.
// Tight vertices, once saturated, never lose their match, so processing
// every tight row and then every tight column saturates all of them; the
// symmetric-difference argument with the matching guaranteed by
// Gonzalez–Sahni shows one of the two terminal moves is always reachable.
func decrementingSet(w [][]exact.Q, rowSum, colSum []exact.Q, remaining exact.Q) ([]int, error) {
	m, n := len(w), len(w[0])
	matchRow := make([]int, m) // row -> col
	matchCol := make([]int, n) // col -> row
	for i := range matchRow {
		matchRow[i] = -1
	}
	for j := range matchCol {
		matchCol[j] = -1
	}
	tightRow := make([]bool, m)
	tightCol := make([]bool, n)
	for i := range tightRow {
		tightRow[i] = rowSum[i].Cmp(remaining) == 0
	}
	for j := range tightCol {
		tightCol[j] = colSum[j].Cmp(remaining) == 0
	}

	// Greedy seed; improves average-case performance only.
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if w[i][j].Sign() > 0 && matchCol[j] < 0 {
				matchRow[i] = j
				matchCol[j] = i
				break
			}
		}
	}

	var augmentRow func(i int, seenCol []bool) bool
	augmentRow = func(i int, seenCol []bool) bool {
		for j := 0; j < n; j++ {
			if seenCol[j] || w[i][j].Sign() <= 0 {
				continue
			}
			seenCol[j] = true
			other := matchCol[j]
			if other < 0 || augmentRow(other, seenCol) || !tightRow[other] {
				if other >= 0 && matchRow[other] == j {
					// Exchange: row `other` is non-tight and could not be
					// re-matched elsewhere; it gives up column j.
					matchRow[other] = -1
				}
				matchRow[i] = j
				matchCol[j] = i
				return true
			}
		}
		return false
	}
	var augmentCol func(j int, seenRow []bool) bool
	augmentCol = func(j int, seenRow []bool) bool {
		for i := 0; i < m; i++ {
			if seenRow[i] || w[i][j].Sign() <= 0 {
				continue
			}
			seenRow[i] = true
			other := matchRow[i]
			if other < 0 || augmentCol(other, seenRow) || !tightCol[other] {
				if other >= 0 && matchCol[other] == i {
					// Exchange: column `other` is non-tight; drop it.
					matchCol[other] = -1
				}
				matchRow[i] = j
				matchCol[j] = i
				return true
			}
		}
		return false
	}

	for i := 0; i < m; i++ {
		if tightRow[i] && matchRow[i] < 0 {
			if !augmentRow(i, make([]bool, n)) {
				return nil, fmt.Errorf("llsched: no matching saturates tight row %d", i)
			}
		}
	}
	for j := 0; j < n; j++ {
		if tightCol[j] && matchCol[j] < 0 {
			if !augmentCol(j, make([]bool, m)) {
				return nil, fmt.Errorf("llsched: no matching saturates tight column %d", j)
			}
		}
	}
	return matchRow, nil
}

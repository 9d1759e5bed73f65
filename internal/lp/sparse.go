package lp

import (
	"sort"

	"divflow/internal/exact"
)

// spVec is a sparse vector: sorted column indices with parallel nonzero
// rational values. The simplex tableau stores its rows this way — the
// scheduling LPs are sparse (each fraction variable appears in a handful of
// rows), and exact cancellation during pivoting keeps them sparse, so
// iterating nonzeros beats scanning a dense row.
type spVec struct {
	ind []int
	val []exact.Q
}

// get returns the value at column col, zero when the vector holds none.
func (v *spVec) get(col int) exact.Q {
	k := sort.SearchInts(v.ind, col)
	if k < len(v.ind) && v.ind[k] == col {
		return v.val[k]
	}
	return exact.Q{}
}

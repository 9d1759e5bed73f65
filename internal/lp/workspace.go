package lp

import (
	"sync/atomic"
	"unsafe"
)

// spareBytes caps the workspace kept between searches, its caller's Layout
// included. A tableau that takes it over drops its buffer on the way back,
// then the Layout if that is not enough, and the rest is kept: the other
// buffers grow with the LP's rows and columns, not with their product. So
// what the process holds between solves is at most one workspace this size.
const spareBytes = 2 << 20

// spare is the workspace kept between searches, nil while one is taken. A
// search takes it whole (TakeWorkspace), so concurrent searches never share
// one: the second finds none and allocates.
var spare atomic.Pointer[Workspace]

// Workspace is what a run of solves over one caller reuses: the float
// tableau its probes fill, the exact fill its exact solves write — whose own
// float pass runs in that same tableau — and the column view and
// factorization the verifier builds over the fill. Each is cleared and
// resliced by the next solve, so a search that takes one workspace allocates
// its buffers once. A workspace is one caller's at a time: nothing read from
// it survives the next fill, and a Solution shares none of its arrays.
type Workspace struct {
	tab  FloatTableau
	fill ExactFill
	// Layout is the caller's own memory for laying its LPs out, kept, capped
	// and handed out with the workspace: nil in a new one, and whatever the
	// last holder left in one taken from the spare.
	Layout Layout
}

// Layout is what a caller keeps with a workspace beyond the workspace's own
// buffers: the arrays it lays its LPs out in before it fills them.
type Layout interface {
	// Bytes is what its buffers hold, at their capacities.
	Bytes() int
}

// TakeWorkspace returns the spare workspace, or a new one when none is kept.
// The caller owns it until it hands it to ReturnWorkspace.
func TakeWorkspace() *Workspace {
	if w := spare.Swap(nil); w != nil {
		return w
	}
	w := new(Workspace)
	w.fill.sf.tab = &w.tab
	return w
}

// ReturnWorkspace offers w back as the spare, once nothing reads it, or its
// Layout, any more. A workspace above spareBytes drops its tableau's buffer,
// then its Layout, and is kept if that brings it under; the spare it replaces
// is left to the collector.
func ReturnWorkspace(w *Workspace) {
	if w.bytes() > spareBytes {
		w.tab.buf, w.tab.rowsData = nil, nil
	}
	if w.bytes() > spareBytes {
		w.Layout = nil
	}
	if w.bytes() <= spareBytes {
		spare.Store(w)
	}
}

// Tableau is the workspace's float tableau.
func (w *Workspace) Tableau() *FloatTableau { return &w.tab }

// Fill is the workspace's exact fill.
func (w *Workspace) Fill() *ExactFill { return &w.fill }

// bytes is what the workspace's buffers and its Layout hold, at their
// capacities.
func (w *Workspace) bytes() int {
	t, f, sf, fac := &w.tab, &w.fill, &w.fill.sf, &w.fill.sf.fac
	layout := 0
	if w.Layout != nil {
		layout = w.Layout.Bytes()
	}
	return layout + size(t.buf) + size(t.rowsData) + size(t.rhsData) + size(t.basis) +
		size(t.cost) + size(t.obj) + size(t.nz) + size(t.nzv) +
		size(f.ind) + size(f.val) + size(sf.rows) + size(sf.rhs) + size(sf.basis0) + size(sf.cost) +
		size(sf.colStart) + size(sf.colRow) + size(sf.colVal) +
		size(fac.rows) + size(fac.cols) + size(fac.entries) + size(fac.bumpRowAt) + size(fac.bumpColAt) +
		size(fac.queue) + size(fac.rowPiv) + size(fac.colPiv) + size(fac.bumpRows) + size(fac.bumpCols) +
		size(fac.lu) + size(fac.perm)
}

// size is the bytes behind a slice's capacity.
func size[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// zeroed returns s resized to n zero elements. It reallocates only to grow,
// and then geometrically, to twice its capacity while that stays under
// spareBytes, so a workspace serving ever larger LPs regrows seldom.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		var z T
		return make([]T, n, max(n, min(2*cap(s), spareBytes/int(unsafe.Sizeof(z)))))
	}
	s = s[:n]
	clear(s)
	return s
}

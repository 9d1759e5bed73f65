// Package affine implements exact affine functions of a single parameter,
// used to represent deadlines d̄_j(F) = r_j + F/w_j and interval bounds that
// depend on the max-weighted-flow objective F (Section 4.3 of RR-5386).
//
// A Form holds value(F) = A + B·F with exact rational coefficients. Within a
// milestone range the relative order of all release dates and deadlines is
// constant, so forms can be ordered by evaluating them at any interior point
// of the range.
package affine

import (
	"fmt"

	"divflow/internal/exact"
)

// Form is the affine function F ↦ A + B·F.
type Form struct {
	A exact.Q // constant coefficient
	B exact.Q // slope in F
}

// Const returns the constant form a.
func Const(a exact.Q) Form { return Form{A: a} }

// New returns the form a + b·F.
func New(a, b exact.Q) Form { return Form{A: a, B: b} }

// Eval returns A + B·f.
func (f Form) Eval(at exact.Q) exact.Q { return f.A.Add(f.B.Mul(at)) }

// Add returns f + g.
func (f Form) Add(g Form) Form { return Form{A: f.A.Add(g.A), B: f.B.Add(g.B)} }

// Sub returns f − g.
func (f Form) Sub(g Form) Form { return Form{A: f.A.Sub(g.A), B: f.B.Sub(g.B)} }

// Neg returns −f.
func (f Form) Neg() Form { return Form{A: f.A.Neg(), B: f.B.Neg()} }

// IsConst reports whether the slope is zero.
func (f Form) IsConst() bool { return f.B.Sign() == 0 }

// Equal reports coefficient-wise equality.
func (f Form) Equal(g Form) bool {
	return f.A.Cmp(g.A) == 0 && f.B.Cmp(g.B) == 0
}

// Intersection returns the unique F at which f and g coincide, or ok=false
// when the forms are parallel (equal slope).
func (f Form) Intersection(g Form) (at exact.Q, ok bool) {
	db := f.B.Sub(g.B)
	if db.Sign() == 0 {
		return exact.Q{}, false
	}
	return g.A.Sub(f.A).Quo(db), true
}

// String renders the form as "A + B*F" (or just "A" for constants), using
// exact rational notation.
func (f Form) String() string {
	if f.IsConst() {
		return f.A.String()
	}
	return fmt.Sprintf("%s + %s*F", f.A, f.B)
}

// Range is an interval of objective values [Lo, Hi]; Hi == nil means +∞.
// Milestone ranges are produced by core.ObjectiveRanges and consumed by the
// range-restricted LPs of Sections 4.3.2 and 4.4.
type Range struct {
	Lo exact.Q
	Hi *exact.Q // nil for unbounded above
}

// Interior returns a point strictly inside the range (used to freeze the
// relative order of affine epochal times, which is constant on the open
// range). For a degenerate range (Lo == Hi) it returns Lo.
func (r Range) Interior() exact.Q {
	if r.Hi == nil {
		return r.Lo.Add(exact.Int(1))
	}
	return r.Lo.Add(*r.Hi).Quo(exact.Int(2))
}

// Contains reports whether at lies in [Lo, Hi].
func (r Range) Contains(at exact.Q) bool {
	return at.Cmp(r.Lo) >= 0 && (r.Hi == nil || at.Cmp(*r.Hi) <= 0)
}

// String renders the range.
func (r Range) String() string {
	if r.Hi == nil {
		return fmt.Sprintf("[%s, +inf)", r.Lo)
	}
	return fmt.Sprintf("[%s, %s]", r.Lo, *r.Hi)
}

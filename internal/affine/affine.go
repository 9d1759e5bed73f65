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
	"math/big"
)

// Form is the affine function F ↦ A + B·F.
type Form struct {
	A *big.Rat // constant coefficient
	B *big.Rat // slope in F
}

// Const returns the constant form a.
func Const(a *big.Rat) Form {
	return Form{A: new(big.Rat).Set(a), B: new(big.Rat)}
}

// New returns the form a + b·F.
func New(a, b *big.Rat) Form {
	return Form{A: new(big.Rat).Set(a), B: new(big.Rat).Set(b)}
}

// Eval returns A + B·f.
func (f Form) Eval(at *big.Rat) *big.Rat {
	v := new(big.Rat).Mul(f.B, at)
	return v.Add(v, f.A)
}

// Add returns f + g.
func (f Form) Add(g Form) Form {
	return Form{
		A: new(big.Rat).Add(f.A, g.A),
		B: new(big.Rat).Add(f.B, g.B),
	}
}

// Sub returns f − g.
func (f Form) Sub(g Form) Form {
	return Form{
		A: new(big.Rat).Sub(f.A, g.A),
		B: new(big.Rat).Sub(f.B, g.B),
	}
}

// Neg returns −f.
func (f Form) Neg() Form {
	return Form{A: new(big.Rat).Neg(f.A), B: new(big.Rat).Neg(f.B)}
}

// IsConst reports whether the slope is zero.
func (f Form) IsConst() bool { return f.B.Sign() == 0 }

// Equal reports coefficient-wise equality.
func (f Form) Equal(g Form) bool {
	return f.A.Cmp(g.A) == 0 && f.B.Cmp(g.B) == 0
}

// Intersection returns the unique F at which f and g coincide, or ok=false
// when the forms are parallel (equal slope).
func (f Form) Intersection(g Form) (at *big.Rat, ok bool) {
	db := new(big.Rat).Sub(f.B, g.B)
	if db.Sign() == 0 {
		return nil, false
	}
	da := new(big.Rat).Sub(g.A, f.A)
	return da.Quo(da, db), true
}

// String renders the form as "A + B*F" (or just "A" for constants), using
// exact rational notation.
func (f Form) String() string {
	if f.IsConst() {
		return f.A.RatString()
	}
	return fmt.Sprintf("%s + %s*F", f.A.RatString(), f.B.RatString())
}

// Range is an interval of objective values [Lo, Hi]; Hi == nil means +∞.
// Milestone ranges are produced by core.Milestones and consumed by the
// range-restricted LPs of Sections 4.3.2 and 4.4.
type Range struct {
	Lo *big.Rat
	Hi *big.Rat // nil for unbounded above
}

// Interior returns a point strictly inside the range (used to freeze the
// relative order of affine epochal times, which is constant on the open
// range). For a degenerate range (Lo == Hi) it returns Lo.
func (r Range) Interior() *big.Rat {
	if r.Hi == nil {
		return new(big.Rat).Add(r.Lo, big.NewRat(1, 1))
	}
	if r.Lo.Cmp(r.Hi) == 0 {
		return new(big.Rat).Set(r.Lo)
	}
	mid := new(big.Rat).Add(r.Lo, r.Hi)
	return mid.Quo(mid, big.NewRat(2, 1))
}

// Contains reports whether at lies in [Lo, Hi].
func (r Range) Contains(at *big.Rat) bool {
	if at.Cmp(r.Lo) < 0 {
		return false
	}
	return r.Hi == nil || at.Cmp(r.Hi) <= 0
}

// String renders the range.
func (r Range) String() string {
	if r.Hi == nil {
		return fmt.Sprintf("[%s, +inf)", r.Lo.RatString())
	}
	return fmt.Sprintf("[%s, %s]", r.Lo.RatString(), r.Hi.RatString())
}

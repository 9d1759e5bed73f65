// Package core seeds floatexact violations: exact quantities dropped to
// floating point inside a decision path.
package core

import (
	"math/big"

	"divflow/internal/exact"
)

func Ratio(r *big.Rat) float64 {
	f, _ := r.Float64() // want `floatexact: Float64 on an exact quantity in a decision path`
	return f
}

func Narrow(r *big.Rat) float32 {
	f, _ := r.Float32() // want `floatexact: Float32 on an exact quantity in a decision path`
	return f
}

func Exact(r *big.Rat) *big.Rat {
	return new(big.Rat).Set(r)
}

func Image(q exact.Q) float64 {
	return q.Float64() // want `floatexact: Float64 on an exact quantity in a decision path`
}

func NarrowImage(q *exact.Q) float32 {
	return q.Float32() // want `floatexact: Float32 on an exact quantity in a decision path`
}

func Sum(q, r exact.Q) exact.Q {
	return q.Add(r)
}

// Package exact stands in for divflow/internal/exact: an exact rational value
// type whose float images floatexact keeps out of the decision paths.
package exact

type Q struct {
	num, den int64
}

func (q Q) Float64() float64 { return float64(q.num) / float64(q.den) }

func (q Q) Float32() float32 { return float32(q.num) / float32(q.den) }

func (q Q) Add(o Q) Q { return Q{num: q.num*o.den + o.num*q.den, den: q.den * o.den} }

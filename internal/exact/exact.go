// Package exact is the rational arithmetic the solvers compute with: one
// immutable value type, Q, that holds n/d in two machine words and escapes
// to math/big only for a value that does not fit them.
//
// The milestone search of Theorem 2 is exact only because every epochal time,
// milestone and LP entry is an exact rational. On the instances the solvers
// meet those rationals are a few bits wide, yet a big.Rat allocates inside
// nearly every operation it performs. Q does the same arithmetic on int64
// words, checks every step for overflow with math/bits, and computes a result
// that would not fit once over math/big, keeping that *big.Rat inside the
// value. Nothing writes to it afterwards, so a Q is copied and shared freely,
// and a result that fits the words again goes back to them: the size of the
// value alone picks the path.
//
// *big.Rat stays at the boundaries: FromRat takes an input in, Rat hands a
// result out. A Q writes itself as *big.Rat does — the exact "n" or "n/d"
// text, in JSON documents and over gob alike — so a value can replace a
// *big.Rat field without changing a byte of what is written.
package exact

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Q is an exact rational. The zero value is 0.
type Q struct {
	// num/(den1+1) in lowest terms, with den1 >= 0 and num > MinInt64: the
	// zero value is 0/1, and negating num never overflows. A value that does
	// not fit is r instead, num and den1 zero; r is never written to.
	num, den1 int64
	r         *big.Rat
}

// Int returns n.
func Int(n int64) Q {
	if n == math.MinInt64 {
		return Q{r: new(big.Rat).SetInt64(n)}
	}
	return Q{num: n}
}

// New returns num/den. It panics when den is zero.
func New(num, den int64) Q {
	if den == 0 {
		panic("exact: zero denominator")
	}
	if num == math.MinInt64 || den == math.MinInt64 {
		return norm(big.NewRat(num, den))
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := gcd(abs(num), den)
	return Q{num: num / g, den1: den/g - 1}
}

// FromRat returns the value of x, nil reading as 0. The result does not alias
// x: the caller may change x afterwards.
func FromRat(x *big.Rat) Q {
	if x == nil {
		return Q{}
	}
	if q, ok := fit(x); ok {
		return q
	}
	return Q{r: new(big.Rat).Set(x)}
}

// Rat returns the value as a new *big.Rat the caller owns. The words are in
// lowest terms already, so they are set as they stand, with no GCD: Denom is
// the new Rat's own denominator once the numerator is set.
func (x Q) Rat() *big.Rat {
	if x.r != nil {
		return new(big.Rat).Set(x.r)
	}
	r := new(big.Rat).SetInt64(x.num)
	if x.den1 != 0 {
		r.Denom().SetInt64(x.den())
	}
	return r
}

// fit returns x in words, if it fits them.
func fit(x *big.Rat) (Q, bool) {
	n, d := x.Num(), x.Denom()
	if !n.IsInt64() || !d.IsInt64() || n.Int64() == math.MinInt64 {
		return Q{}, false
	}
	return Q{num: n.Int64(), den1: d.Int64() - 1}, true
}

// norm wraps a result computed over math/big that no one else holds: in
// words when it fits them, as itself otherwise.
func norm(x *big.Rat) Q {
	if q, ok := fit(x); ok {
		return q
	}
	return Q{r: x}
}

// rat is the value over math/big, for reading only: the held rational itself,
// or a new one made from the words.
func (x Q) rat() *big.Rat {
	if x.r != nil {
		return x.r
	}
	return big.NewRat(x.num, x.den())
}

func (x Q) den() int64 { return x.den1 + 1 }

// slow computes op over math/big, for operands or a result the words cannot
// hold.
func slow(x, y Q, op func(z, x, y *big.Rat) *big.Rat) Q {
	return norm(op(new(big.Rat), x.rat(), y.rat()))
}

// Add returns x + y.
func (x Q) Add(y Q) Q {
	if x.r == nil && y.r == nil {
		if q, ok := addWords(x.num, x.den(), y.num, y.den()); ok {
			return q
		}
	}
	return slow(x, y, (*big.Rat).Add)
}

// Sub returns x − y.
func (x Q) Sub(y Q) Q {
	if x.r == nil && y.r == nil {
		if q, ok := addWords(x.num, x.den(), -y.num, y.den()); ok {
			return q
		}
	}
	return slow(x, y, (*big.Rat).Sub)
}

// Mul returns x · y.
func (x Q) Mul(y Q) Q {
	if x.r == nil && y.r == nil {
		if q, ok := mulWords(x.num, x.den(), y.num, y.den()); ok {
			return q
		}
	}
	return slow(x, y, (*big.Rat).Mul)
}

// Quo returns x / y. It panics when y is zero.
func (x Q) Quo(y Q) Q {
	if y.Sign() == 0 {
		panic("exact: division by zero")
	}
	if x.r == nil && y.r == nil {
		c, d := y.den(), y.num // 1/y, its sign moved to the numerator
		if d < 0 {
			c, d = -c, -d
		}
		if q, ok := mulWords(x.num, x.den(), c, d); ok {
			return q
		}
	}
	return slow(x, y, (*big.Rat).Quo)
}

// Inv returns 1/x. It panics when x is zero.
func (x Q) Inv() Q {
	switch {
	case x.r != nil:
		return norm(new(big.Rat).Inv(x.r))
	case x.num > 0:
		return Q{num: x.den(), den1: x.num - 1}
	case x.num < 0:
		return Q{num: -x.den(), den1: -x.num - 1}
	}
	panic("exact: division by zero")
}

// Neg returns −x.
func (x Q) Neg() Q {
	if x.r != nil {
		return norm(new(big.Rat).Neg(x.r))
	}
	return Q{num: -x.num, den1: x.den1}
}

// Sign returns −1, 0 or +1 as x is negative, zero or positive.
func (x Q) Sign() int {
	if x.r != nil {
		return x.r.Sign()
	}
	return sign(x.num)
}

// Cmp returns −1, 0 or +1 as x is less than, equal to or greater than y.
func (x Q) Cmp(y Q) int {
	if x.r != nil || y.r != nil {
		return x.rat().Cmp(y.rat())
	}
	if x.den1 == y.den1 {
		return cmp(x.num, y.num)
	}
	sx := sign(x.num)
	if sy := sign(y.num); sx != sy {
		return cmp(int64(sx), int64(sy))
	}
	// Same sign, both nonzero: compare |x.num|·y.den with |y.num|·x.den in
	// 128 bits, which hold either product.
	hx, lx := bits.Mul64(abs(x.num), uint64(y.den()))
	hy, ly := bits.Mul64(abs(y.num), uint64(x.den()))
	c := cmp(hx, hy)
	if c == 0 {
		c = cmp(lx, ly)
	}
	return c * sx
}

// Float64 returns the float64 nearest x, as (*big.Rat).Float64 does, bit for
// bit: a quotient of two integers float64 holds exactly is rounded once, by
// the division, to nearest even.
func (x Q) Float64() float64 {
	const whole = 1 << 53 // every integer up to here is a float64
	if x.r == nil && abs(x.num) <= whole && x.den1 < whole {
		return float64(x.num) / float64(x.den())
	}
	f, _ := x.rat().Float64()
	return f
}

// BitLen returns the bit lengths of the numerator and the denominator in
// lowest terms, added: how long a pivot on x keeps the entries it touches.
func (x Q) BitLen() int {
	if x.r != nil {
		return x.r.Num().BitLen() + x.r.Denom().BitLen()
	}
	return bits.Len64(abs(x.num)) + bits.Len64(uint64(x.den()))
}

// String renders x as (*big.Rat).RatString does: "n" or "n/d".
func (x Q) String() string {
	if x.r != nil {
		return x.r.RatString()
	}
	if x.den1 == 0 {
		return strconv.FormatInt(x.num, 10)
	}
	return strconv.FormatInt(x.num, 10) + "/" + strconv.FormatInt(x.den(), 10)
}

// MarshalText writes x as (*big.Rat).MarshalText does, in its String form,
// so a Q is a JSON string that reads the bytes a *big.Rat field wrote.
func (x Q) MarshalText() ([]byte, error) { return []byte(x.String()), nil }

// UnmarshalText reads what (*big.Rat).UnmarshalText reads.
func (x *Q) UnmarshalText(text []byte) error {
	r, ok := new(big.Rat).SetString(string(text))
	if !ok {
		return fmt.Errorf("exact: cannot unmarshal %q into a rational", text)
	}
	*x = norm(r)
	return nil
}

// GobEncode makes a Q a gob value, in its text form.
func (x Q) GobEncode() ([]byte, error) { return x.MarshalText() }

// GobDecode reads what GobEncode wrote.
func (x *Q) GobDecode(b []byte) error { return x.UnmarshalText(b) }

// addWords returns a/b + c/d in lowest terms from operands in lowest terms
// (b, d > 0), reporting false on overflow. Knuth's: with g = gcd(b, d), the
// sum is t/(b/g·d) for t = a·(d/g) + c·(b/g), and t shares with that
// denominator only what it shares with g.
func addWords(a, b, c, d int64) (Q, bool) {
	if c == 0 {
		return Q{num: a, den1: b - 1}, true
	}
	if a == 0 {
		return Q{num: c, den1: d - 1}, true
	}
	g := gcd(uint64(b), d)
	p, ok1 := mul(a, d/g)
	q, ok2 := mul(c, b/g)
	t, ok3 := add(p, q)
	if !ok1 || !ok2 || !ok3 {
		return Q{}, false
	}
	if t == 0 {
		return Q{}, true
	}
	g2 := gcd(abs(t), g)
	den, ok := mul(b/g, d/g2)
	return Q{num: t / g2, den1: den - 1}, ok
}

// mulWords returns (a/b)·(c/d) in lowest terms from operands in lowest terms
// (b, d > 0), reporting false on overflow: each numerator is reduced against
// the other's denominator first.
func mulWords(a, b, c, d int64) (Q, bool) {
	if a == 0 || c == 0 {
		return Q{}, true
	}
	g1, g2 := gcd(abs(a), d), gcd(abs(c), b)
	n, ok1 := mul(a/g1, c/g2)
	m, ok2 := mul(b/g2, d/g1)
	return Q{num: n, den1: m - 1}, ok1 && ok2
}

// mul returns a·b, reporting false when it is not in (MinInt64, MaxInt64].
func mul(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs(a), abs(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// add returns a + b, reporting false when it is not in (MinInt64, MaxInt64].
func add(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0) && s != math.MinInt64
}

// gcd returns the greatest common divisor of a >= 0 and b > 0.
func gcd(a uint64, b int64) int64 {
	for x, y := a, uint64(b); ; {
		if x == 0 {
			return int64(y)
		}
		x, y = y%x, x
	}
}

// abs returns |a| for a > MinInt64.
func abs(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}

func sign(a int64) int {
	switch {
	case a < 0:
		return -1
	case a > 0:
		return 1
	}
	return 0
}

func cmp[T int64 | uint64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

package exact

import (
	"math"
	"math/big"
	"testing"
)

// operand builds n/d · 2^shift both ways: as a Q, through New and then Mul or
// Quo by a power of two, and as the *big.Rat it must equal. A shift takes the
// value past the words on purpose; d == 0 reads as 1.
func operand(t *testing.T, n, d int64, shift int8) (Q, *big.Rat) {
	t.Helper()
	if d == 0 {
		d = 1
	}
	want := big.NewRat(n, d)
	q := New(n, d)
	if from := FromRat(want); from != q && (from.r == nil || q.r == nil || from.r.Cmp(q.r) != 0) {
		t.Fatalf("New(%d, %d) = %+v, FromRat(%v) = %+v", n, d, q, want, from)
	}
	s := int(shift) % 80
	pow := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(max(s, -s))))
	if s > 0 {
		want.Mul(want, pow)
		q = q.Mul(FromRat(pow))
	} else if s < 0 {
		want.Quo(want, pow)
		q = q.Quo(FromRat(pow))
	}
	return q, want
}

// same holds q to the value want by every accessor, and to the one
// representation the value has: in words exactly when they can hold it.
func same(t *testing.T, label string, q Q, want *big.Rat) {
	t.Helper()
	// Rat sets the words as they stand: they must already be want's lowest
	// terms.
	if got := q.Rat(); got.Cmp(want) != 0 || got.Num().Cmp(want.Num()) != 0 || got.Denom().Cmp(want.Denom()) != 0 {
		t.Fatalf("%s = %v, want %v", label, got, want)
	}
	if _, fits := fit(want); fits != (q.r == nil) {
		t.Fatalf("%s = %v held in words %v, but it fits them %v", label, want, q.r == nil, fits)
	}
	if q.Sign() != want.Sign() || q.String() != want.RatString() ||
		q.BitLen() != want.Num().BitLen()+want.Denom().BitLen() {
		t.Fatalf("%s = %v: sign %d, string %q, bit length %d", label, want, q.Sign(), q.String(), q.BitLen())
	}
	// The float images the probes see must be big.Rat's, bit for bit.
	if f, _ := want.Float64(); math.Float64bits(q.Float64()) != math.Float64bits(f) {
		t.Fatalf("%s = %v: Float64 %v (%#x), big.Rat %v (%#x)", label, want, q.Float64(), math.Float64bits(q.Float64()), f, math.Float64bits(f))
	}
	// The written form is big.Rat's, byte for byte, and reads back as the
	// same value — also from the notations only math/big writes.
	text, _ := q.MarshalText()
	if wantText, _ := want.MarshalText(); string(text) != string(wantText) {
		t.Fatalf("%s = %v: MarshalText %q, big.Rat %q", label, want, text, wantText)
	}
	var read Q
	if err := read.UnmarshalText(text); err != nil || read.Cmp(q) != 0 {
		t.Fatalf("%s = %v: UnmarshalText(%q) = %v, %v", label, want, text, read, err)
	}
	for _, s := range []string{want.FloatString(0) + "/1", "0" + string(text), string(text) + "/0", want.FloatString(3)} {
		var got Q
		err := got.UnmarshalText([]byte(s))
		if r, ok := new(big.Rat).SetString(s); (err == nil) != ok || ok && got.Rat().Cmp(r) != 0 {
			t.Fatalf("%s = %v: UnmarshalText(%q) = %v, %v; big.Rat reads %v, %v", label, want, s, got, err, r, ok)
		}
	}
	// Neither way across the boundary aliases: changing what Rat handed out
	// or what FromRat was handed leaves the value alone.
	out := q.Rat()
	out.Add(out, big.NewRat(1, 1))
	in := new(big.Rat).Set(want)
	back := FromRat(in)
	in.Add(in, big.NewRat(1, 1))
	if q.Rat().Cmp(want) != 0 || back.Cmp(q) != 0 {
		t.Fatalf("%s = %v: a value shares a rational with its caller", label, want)
	}
}

// FuzzExact holds every operation of Q to math/big on operands on either side
// of the word/escape boundary. `go test` replays the seeds; CI runs `go test
// -fuzz FuzzExact -fuzztime 20s` as well.
func FuzzExact(f *testing.F) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	for _, s := range []struct {
		an, ad int64
		as     int8
		bn, bd int64
		bs     int8
	}{
		{3, 4, 0, -5, 6, 0},                  // small
		{0, 1, 0, 7, 1, 0},                   // zero
		{1 << 62, 1, 0, 1 << 62, 1, 0},       // 2^62 + 2^62 = 2^63 leaves the words
		{-1 << 62, 1, 0, -1 << 62, 1, 0},     // −2^63 = MinInt64, which the words exclude
		{1, 1, 63, -1, 1, 63},                // ±2^63
		{minI, 1, 0, -1, 1, 0},               // MinInt64 in; −MinInt64 out
		{minI, -1, 0, minI, 3, 0},            // MinInt64 as a denominator's negation
		{maxI, 1, 0, 1, 1, 0},                // MaxInt64 + 1
		{1, maxI, 0, 1, maxI - 1, 0},         // denominators at the limit
		{maxI - 1, maxI, 0, 2, maxI, 0},      // a sum back into the words
		{1, 3, 70, -1, 3, 70},                // over 64 bits, difference 0
		{5, 7, 71, 2, 9, -70},                // over 64 bits in numerator and denominator
		{1 << 53, 1, 0, (1 << 53) + 1, 1, 0}, // where float64 stops holding every integer
		{1, 1 << 53, 0, 1, (1 << 53) + 1, 0},
		{maxI, maxI - 2, 0, minI + 1, maxI, 0},
	} {
		f.Add(s.an, s.ad, s.as, s.bn, s.bd, s.bs)
	}
	f.Fuzz(func(t *testing.T, an, ad int64, as int8, bn, bd int64, bs int8) {
		x, xr := operand(t, an, ad, as)
		y, yr := operand(t, bn, bd, bs)
		same(t, "x", x, xr)
		same(t, "y", y, yr)
		same(t, "x+y", x.Add(y), new(big.Rat).Add(xr, yr))
		same(t, "x−y", x.Sub(y), new(big.Rat).Sub(xr, yr))
		same(t, "x·y", x.Mul(y), new(big.Rat).Mul(xr, yr))
		same(t, "−x", x.Neg(), new(big.Rat).Neg(xr))
		if yr.Sign() != 0 {
			same(t, "x/y", x.Quo(y), new(big.Rat).Quo(xr, yr))
			same(t, "1/y", y.Inv(), new(big.Rat).Inv(yr))
		}
		if got, want := x.Cmp(y), xr.Cmp(yr); got != want {
			t.Fatalf("Cmp(%v, %v) = %d, want %d", xr, yr, got, want)
		}
		if x.Cmp(x) != 0 || x.Cmp(x.Add(Int(1))) >= 0 {
			t.Fatalf("%v is not equal to itself or not below itself plus one", xr)
		}
		// No operation wrote to an operand.
		same(t, "x after", x, xr)
		same(t, "y after", y, yr)
	})
}

// TestZeroValue pins what the solvers rely on when they make a slice of Q:
// the zero value is 0, and it computes as 0.
func TestZeroValue(t *testing.T) {
	var z Q
	same(t, "Q{}", z, new(big.Rat))
	if z != Int(0) || z != New(0, -5) || z != FromRat(nil) || z.Add(New(2, 3)) != New(2, 3) || z.Mul(New(2, 3)) != z {
		t.Errorf("the zero value is not the one 0")
	}
	for _, f := range []func(){func() { New(1, 0) }, func() { z.Inv() }, func() { New(1, 2).Quo(z) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a division by zero did not panic")
				}
			}()
			f()
		}()
	}
}

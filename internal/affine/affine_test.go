package affine

import (
	"math/big"
	"testing"
	"testing/quick"

	"divflow/internal/exact"
)

func r(a, b int64) exact.Q { return exact.New(a, b) }

func TestEval(t *testing.T) {
	f := New(r(3, 1), r(1, 2)) // 3 + F/2
	if got := f.Eval(r(4, 1)); got.Cmp(r(5, 1)) != 0 {
		t.Errorf("f(4) = %v, want 5", got)
	}
	if got := f.Eval(r(0, 1)); got.Cmp(r(3, 1)) != 0 {
		t.Errorf("f(0) = %v, want 3", got)
	}
}

func TestConstIsConst(t *testing.T) {
	c := Const(r(7, 3))
	if !c.IsConst() {
		t.Error("Const form should report IsConst")
	}
	if got := c.Eval(r(100, 1)); got.Cmp(r(7, 3)) != 0 {
		t.Errorf("const eval = %v, want 7/3", got)
	}
}

func TestAddSubNeg(t *testing.T) {
	f := New(r(1, 1), r(2, 1))
	g := New(r(3, 1), r(-1, 1))
	sum := f.Add(g)
	if !sum.Equal(New(r(4, 1), r(1, 1))) {
		t.Errorf("f+g = %v", sum)
	}
	diff := f.Sub(g)
	if !diff.Equal(New(r(-2, 1), r(3, 1))) {
		t.Errorf("f-g = %v", diff)
	}
	if !f.Neg().Equal(New(r(-1, 1), r(-2, 1))) {
		t.Errorf("-f = %v", f.Neg())
	}
}

func TestIntersection(t *testing.T) {
	f := New(r(0, 1), r(1, 1))  // F
	g := New(r(6, 1), r(-1, 1)) // 6 - F
	at, ok := f.Intersection(g)
	if !ok || at.Cmp(r(3, 1)) != 0 {
		t.Fatalf("intersection = %v, %v; want 3, true", at, ok)
	}
	// Parallel forms have no intersection.
	if _, ok := f.Intersection(New(r(5, 1), r(1, 1))); ok {
		t.Error("parallel forms should not intersect")
	}
}

func TestIntersectionProperty(t *testing.T) {
	check := func(a1, b1, a2, b2 int16) bool {
		f := New(r(int64(a1), 1), r(int64(b1), 1))
		g := New(r(int64(a2), 1), r(int64(b2), 1))
		at, ok := f.Intersection(g)
		if !ok {
			return b1 == b2
		}
		return f.Eval(at).Cmp(g.Eval(at)) == 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeInterior(t *testing.T) {
	four, five := r(4, 1), r(5, 1)
	rg := Range{Lo: r(2, 1), Hi: &four}
	mid := rg.Interior()
	if mid.Cmp(r(3, 1)) != 0 {
		t.Errorf("interior = %v, want 3", mid)
	}
	if !rg.Contains(mid) {
		t.Error("interior point must be contained")
	}
	unb := Range{Lo: r(10, 1)}
	p := unb.Interior()
	if p.Cmp(r(11, 1)) != 0 {
		t.Errorf("unbounded interior = %v, want 11", p)
	}
	deg := Range{Lo: five, Hi: &five}
	if deg.Interior().Cmp(five) != 0 {
		t.Error("degenerate interior should be Lo")
	}
}

func TestRangeContains(t *testing.T) {
	one := r(1, 1)
	rg := Range{Lo: r(0, 1), Hi: &one}
	for _, tc := range []struct {
		at   exact.Q
		want bool
	}{
		{r(-1, 1), false}, {r(0, 1), true}, {r(1, 2), true}, {r(1, 1), true}, {r(2, 1), false},
	} {
		if got := rg.Contains(tc.at); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestString(t *testing.T) {
	f := New(r(3, 2), r(1, 4))
	if got := f.String(); got != "3/2 + 1/4*F" {
		t.Errorf("String = %q", got)
	}
	if got := Const(r(5, 1)).String(); got != "5" {
		t.Errorf("const String = %q", got)
	}
	rg := Range{Lo: r(1, 1), Hi: nil}
	if got := rg.String(); got != "[1, +inf)" {
		t.Errorf("range String = %q", got)
	}
	two := r(2, 1)
	if got := (Range{Lo: r(1, 3), Hi: &two}).String(); got != "[1/3, 2]" {
		t.Errorf("range String = %q", got)
	}
}

// TestFormAliasing ensures a form does not share the rational it was made
// from: changing that rational afterwards leaves the form alone.
func TestFormAliasing(t *testing.T) {
	a := big.NewRat(1, 1)
	f := Const(exact.FromRat(a))
	a.SetInt64(99)
	if f.A.Cmp(r(1, 1)) != 0 {
		t.Error("a form aliases the rational it was made from")
	}
}

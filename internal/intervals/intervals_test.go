package intervals

import (
	"math/rand"
	"testing"

	"divflow/internal/affine"
	"divflow/internal/exact"
)

func r(a, b int64) exact.Q { return exact.New(a, b) }

// fromConstants builds intervals from plain rational epochal times (release
// dates, fixed deadlines): order does not depend on F.
func fromConstants(points ...exact.Q) []Interval {
	forms := make([]affine.Form, len(points))
	for i, p := range points {
		forms[i] = affine.Const(p)
	}
	ivs, _ := Build(forms, exact.Q{})
	return ivs
}

func TestFromConstants(t *testing.T) {
	ivs := fromConstants(r(5, 1), r(0, 1), r(2, 1), r(5, 1))
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals, want 2", len(ivs))
	}
	if ivs[0].Lo.A.Cmp(r(0, 1)) != 0 || ivs[0].Hi.A.Cmp(r(2, 1)) != 0 {
		t.Errorf("interval 0 = [%v,%v], want [0,2]", ivs[0].Lo, ivs[0].Hi)
	}
	if ivs[1].Lo.A.Cmp(r(2, 1)) != 0 || ivs[1].Hi.A.Cmp(r(5, 1)) != 0 {
		t.Errorf("interval 1 = [%v,%v], want [2,5]", ivs[1].Lo, ivs[1].Hi)
	}
}

func TestFromConstantsDegenerate(t *testing.T) {
	if ivs := fromConstants(r(3, 1), r(3, 1)); ivs != nil {
		t.Errorf("single distinct point should yield no interval, got %v", ivs)
	}
	if ivs := fromConstants(); ivs != nil {
		t.Errorf("empty input should yield no interval, got %v", ivs)
	}
}

func TestLength(t *testing.T) {
	iv := Interval{
		Lo: affine.Const(r(2, 1)),
		Hi: affine.New(r(1, 1), r(1, 2)), // 1 + F/2
	}
	l := iv.Length() // -1 + F/2
	if l.A.Cmp(r(-1, 1)) != 0 || l.B.Cmp(r(1, 2)) != 0 {
		t.Errorf("length = %v", l)
	}
	if got := l.Eval(r(6, 1)); got.Cmp(r(2, 1)) != 0 {
		t.Errorf("length(6) = %v, want 2", got)
	}
}

func TestSortTimesAffine(t *testing.T) {
	// Times: r=0, r=4, d1 = 0 + F (w=1), d2 = 4 + F/2 (w=2).
	// At F=2: values 0, 4, 2, 5 -> order 0, 2, 4, 5.
	times := []affine.Form{
		affine.Const(r(0, 1)),
		affine.Const(r(4, 1)),
		affine.New(r(0, 1), r(1, 1)),
		affine.New(r(4, 1), r(1, 2)),
	}
	at := r(2, 1)
	sorted, _ := SortTimes(times, at)
	if len(sorted) != 4 {
		t.Fatalf("got %d times, want 4", len(sorted))
	}
	want := []exact.Q{r(0, 1), r(2, 1), r(4, 1), r(5, 1)}
	for i, f := range sorted {
		if f.Eval(at).Cmp(want[i]) != 0 {
			t.Errorf("sorted[%d](2) = %v, want %v", i, f.Eval(at), want[i])
		}
	}
}

func TestSortTimesDedup(t *testing.T) {
	// Two identical deadline forms and a coincident constant at F=4:
	// 2 + F/2 equals 4 at F=4 — but we evaluate at F=2 (value 3 != 4),
	// so only exact duplicates collapse.
	times := []affine.Form{
		affine.New(r(2, 1), r(1, 2)),
		affine.New(r(2, 1), r(1, 2)),
		affine.Const(r(4, 1)),
	}
	sorted, rank := SortTimes(times, r(2, 1))
	if len(sorted) != 2 {
		t.Fatalf("got %d times, want 2 after dedup", len(sorted))
	}
	if rank[0] != 0 || rank[1] != 0 || rank[2] != 1 {
		t.Errorf("ranks = %v, want duplicates sharing rank 0 and the constant at 1", rank)
	}
}

func TestBuildCoversGaps(t *testing.T) {
	times := []affine.Form{affine.Const(r(0, 1)), affine.Const(r(10, 1)), affine.Const(r(3, 1))}
	ivs, _ := Build(times, exact.Q{})
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals", len(ivs))
	}
	// Intervals must tile [0,10] without gap or overlap.
	if ivs[0].Hi.Eval(exact.Q{}).Cmp(ivs[1].Lo.Eval(exact.Q{})) != 0 {
		t.Error("intervals must be adjacent")
	}
}

// TestRanksDecideActivity holds the integer rule to the paper's rational
// one: a job released at times[a] and due at times[b] may run in interval t
// iff rank[a] <= t < rank[b], which must say what (1a)/(2a) and (2b) say —
// release <= inf I_t and deadline >= sup I_t — for every pair of times.
func TestRanksDecideActivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 100; it++ {
		times := make([]affine.Form, 2+rng.Intn(10))
		for i := range times {
			times[i] = affine.New(r(int64(rng.Intn(12)), 1), r(int64(rng.Intn(4)), 1))
		}
		at := r(int64(1+rng.Intn(5)), 1)
		ivs, rank := Build(times, at)
		for k, iv := range ivs {
			lo, hi := iv.Lo.Eval(at), iv.Hi.Eval(at)
			for a, rel := range times {
				for b, dl := range times {
					want := rel.Eval(at).Cmp(lo) <= 0 && dl.Eval(at).Cmp(hi) >= 0
					if got := rank[a] <= k && k < rank[b]; got != want {
						t.Fatalf("iter %d interval %d [%v,%v], release %v deadline %v: ranks %d, %d say %v, the rationals %v",
							it, k, lo, hi, rel.Eval(at), dl.Eval(at), rank[a], rank[b], got, want)
					}
				}
			}
		}
	}
}

// TestBuildSortedProperty checks ordering and adjacency on random inputs.
func TestBuildSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for it := 0; it < 100; it++ {
		n := 2 + rng.Intn(10)
		times := make([]affine.Form, n)
		for i := range times {
			times[i] = affine.New(r(int64(rng.Intn(20)), 1), r(int64(rng.Intn(5)), 1))
		}
		at := r(int64(1+rng.Intn(5)), 1)
		ivs, _ := Build(times, at)
		for k, iv := range ivs {
			lo, hi := iv.Lo.Eval(at), iv.Hi.Eval(at)
			if lo.Cmp(hi) >= 0 {
				t.Fatalf("iter %d: interval %d empty or inverted: [%v,%v]", it, k, lo, hi)
			}
			if k > 0 && ivs[k-1].Hi.Eval(at).Cmp(lo) != 0 {
				t.Fatalf("iter %d: gap before interval %d", it, k)
			}
		}
	}
}

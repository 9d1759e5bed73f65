package shardlink

import (
	"encoding/json"
	"math/rand"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/obs"
)

// Random ledgers: every optional part (a rational, the histogram, the class
// map, a whole tenant) is sometimes absent, since absent-means-zero is the
// part of the contract a hand copy gets wrong.

func randQ(rng *rand.Rand) exact.Q {
	if rng.Intn(4) == 0 {
		return exact.Q{}
	}
	return exact.New(rng.Int63n(50), 1+rng.Int63n(7))
}

func randOpt(rng *rand.Rand) *exact.Q {
	if rng.Intn(4) == 0 {
		return nil
	}
	q := randQ(rng)
	return &q
}

func randHist(rng *rand.Rand) *obs.HistogramSnapshot {
	if rng.Intn(3) == 0 {
		return nil
	}
	h := obs.NewHistogram(obs.DefFlowBuckets)
	for n := rng.Intn(6); n > 0; n-- {
		h.Observe(float64(rng.Intn(40)) / 4) // quarters: the float sum stays exact in any order
	}
	snap := h.Snapshot()
	return &snap
}

func randFlow(rng *rand.Rand) FlowTotals {
	return FlowTotals{DoneCount: rng.Intn(9), FlowSum: randQ(rng), MaxWF: randQ(rng), MaxStretch: randQ(rng), Flow: randHist(rng)}
}

func randTenant(rng *rand.Rand) *TenantTotals {
	t := &TenantTotals{Submitted: rng.Intn(9), Completed: rng.Intn(9), FlowSum: randOpt(rng), MaxWF: randQ(rng),
		WFlow: randHist(rng), Backlog: randQ(rng)}
	for _, class := range []string{"", "batch", "premium"} {
		if rng.Intn(2) == 0 {
			if t.ByClass == nil {
				t.ByClass = map[string]int{}
			}
			t.ByClass[class] = 1 + rng.Intn(5)
		}
	}
	return t
}

func randLedger(rng *rand.Rand) TenantLedger {
	l := TenantLedger{}
	for _, name := range []string{"acme", "globex", "initech"} {
		if rng.Intn(3) > 0 {
			l[name] = randTenant(rng)
		}
	}
	return l
}

func randTotals(rng *rand.Rand) ShardTotals {
	return ShardTotals{ArrivalBatches: rng.Intn(9), StolenIn: rng.Intn(9), FlowTotals: randFlow(rng),
		LastCompact: randOpt(rng), MakespanHW: randOpt(rng)}
}

// written is the ledger as a snapshot would write it — the comparison that
// sees every field, absent ones included.
func written(t *testing.T, v any) string {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// The scribble helpers overwrite, in place, everything a copy could share
// with its source: every histogram slot, every map entry. The rationals are
// values, and nothing writes through the one optional flow sum.
func scribbleHist(h *obs.HistogramSnapshot) {
	if h != nil {
		for i := range h.Counts {
			h.Counts[i] += 1000
		}
	}
}

func scribbleFlow(f *FlowTotals) {
	scribbleHist(f.Flow)
}

func scribbleTenant(tt *TenantTotals) {
	scribbleHist(tt.WFlow)
	for class := range tt.ByClass {
		tt.ByClass[class] += 1000
	}
}

// TestLedgerCloneSharesNothing: scribbling over a clone leaves the source as
// it was — no map or histogram slot is common to the two.
func TestLedgerCloneSharesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 200; i++ {
		totals, ledger := randTotals(rng), randLedger(rng)
		before := written(t, totals) + written(t, ledger)

		tc := totals.Clone()
		if got := written(t, tc); got != written(t, totals) {
			t.Fatalf("ShardTotals.Clone wrote %s, the source %s", got, written(t, totals))
		}
		scribbleFlow(&tc.FlowTotals)

		lc := ledger.Clone()
		if got := written(t, lc); got != written(t, ledger) {
			t.Fatalf("TenantLedger.Clone wrote %s, the source %s", got, written(t, ledger))
		}
		for name, tt := range lc {
			scribbleTenant(tt)
			one := ledger[name].Clone()
			scribbleTenant(&one)
		}
		lc["someone-else"] = new(TenantTotals)

		if after := written(t, totals) + written(t, ledger); after != before {
			t.Fatalf("scribbling over the clones changed the source:\n was %s\n now %s", before, after)
		}
	}
}

// TestLedgerMergeCommutes: a ⊕ b and b ⊕ a write the same ledger, and neither
// argument is changed or aliased by having been merged.
func TestLedgerMergeCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < 200; i++ {
		fa, fb := randFlow(rng), randFlow(rng)
		la, lb := randLedger(rng), randLedger(rng)
		before := written(t, fa) + written(t, fb) + written(t, la) + written(t, lb)

		fab, fba := fa.Clone(), fb.Clone()
		fab.Merge(fb)
		fba.Merge(fa)
		if ab, ba := written(t, fab), written(t, fba); ab != ba {
			t.Fatalf("FlowTotals: a⊕b = %s, b⊕a = %s", ab, ba)
		}
		if want := fa.DoneCount + fb.DoneCount; fab.DoneCount != want {
			t.Fatalf("FlowTotals: merged DoneCount %d, want %d", fab.DoneCount, want)
		}
		lab, lba := la.Clone(), lb.Clone()
		lab.Merge(lb)
		lba.Merge(la)
		if ab, ba := written(t, lab), written(t, lba); ab != ba {
			t.Fatalf("TenantLedger: a⊕b = %s, b⊕a = %s", ab, ba)
		}

		scribbleFlow(&fab)
		scribbleFlow(&fba)
		for _, l := range []TenantLedger{lab, lba} {
			for _, tt := range l {
				scribbleTenant(tt)
			}
		}
		if after := written(t, fa) + written(t, fb) + written(t, la) + written(t, lb); after != before {
			t.Fatalf("merging changed or aliased an argument:\n was %s\n now %s", before, after)
		}
	}
}

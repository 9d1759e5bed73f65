package shardlink

import (
	"bytes"
	"encoding/gob"
	"math/big"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/model"
)

// roundTrip sends v through gob exactly as net/rpc would: encoded from a
// pointer, decoded into a fresh zero value.
func roundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatalf("%T: encode: %v", v, err)
	}
	var out T
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("%T: decode: %v", v, err)
	}
	return out
}

// sameQ is the exactness contract of the boundary for one rational field:
// the value arrives equal, in the representation its size calls for — words
// while it fits them, math/big past them.
func sameQ(t *testing.T, field string, got, want exact.Q) {
	t.Helper()
	if got.Cmp(want) != 0 || got.String() != want.String() || got.BitLen() != want.BitLen() {
		t.Errorf("%s: %v arrived as %v", field, want, got)
	}
}

// orZero reads an optional rational. gob sends no zero value, so a pointer to
// zero arrives as none: the same zero to every reader.
func orZero(q *exact.Q) exact.Q {
	if q == nil {
		return exact.Q{}
	}
	return *q
}

// TestMigrationMessagesSurviveGob round-trips a migrated job and the
// adoption that carries it, the routing key and the stats snapshot, with
// zero, small, negative and past-64-bit rationals in every rational field.
func TestMigrationMessagesSurviveGob(t *testing.T) {
	// A numerator and denominator past 64 bits: exactness is not a float's.
	huge, _ := new(big.Rat).SetString("123456789012345678901234567890/987654321098765432109876543211")
	// (2^128+1)/(2^128-1): both halves need a 129th bit.
	wide, _ := new(big.Rat).SetString("340282366920938463463374607431768211457/340282366920938463463374607431768211455")
	for name, r := range map[string]exact.Q{
		"wide":     exact.FromRat(wide),
		"zero":     {},
		"third":    exact.New(1, 3),
		"negative": exact.New(-7, 2),
		"huge":     exact.FromRat(huge),
	} {
		t.Run(name, func(t *testing.T) {
			job := MigratedJob{FromLocal: 4, GID: 9, Remaining: r, Counted: true, Job: Job{
				Name: "blast", Weight: r, Size: r, Release: r, Databanks: []string{"swissprot", "pdb"},
				Deadline: r, Tenant: "gold", SLAClass: "premium",
			}}
			checkJob := func(msg string, got MigratedJob) {
				t.Helper()
				sameQ(t, msg+".Weight", got.Weight, r)
				sameQ(t, msg+".Size", got.Size, r)
				sameQ(t, msg+".Release", got.Release, r)
				sameQ(t, msg+".Remaining", got.Remaining, r)
				sameQ(t, msg+".Deadline", got.Deadline, r)
				if got.FromLocal != 4 || got.GID != 9 || got.Name != "blast" || !got.Counted ||
					got.Tenant != "gold" || got.SLAClass != "premium" || len(got.Databanks) != 2 {
					t.Errorf("%s: scalar fields arrived as %+v", msg, got)
				}
			}
			checkJob("MigratedJob", roundTrip(t, job))

			ad := roundTrip(t, AdmitArgs{Jobs: []MigratedJob{job}, Reason: "steal", From: 3, At: r})
			sameQ(t, "AdmitArgs.At", ad.At, r)
			if ad.From != 3 || ad.Reason != "steal" || len(ad.Jobs) != 1 {
				t.Fatalf("AdmitArgs arrived as %+v", ad)
			}
			checkJob("AdmitArgs.Jobs[0]", ad.Jobs[0])

			ri := roundTrip(t, RouteInfoReply{Backlog: r, Err: "stalled", TenantBacklog: map[string]exact.Q{"gold": r}})
			sameQ(t, "RouteInfoReply.Backlog", ri.Backlog, r)
			if b, ok := ri.TenantBacklog["gold"]; !ok {
				t.Error("RouteInfoReply.TenantBacklog lost its entry")
			} else {
				sameQ(t, "RouteInfoReply.TenantBacklog[gold]", b, r)
			}
			if ri.Err != "stalled" {
				t.Errorf("RouteInfoReply.Err arrived as %q", ri.Err)
			}

			sc := roundTrip(t, ScheduleReply{Now: r, Makespan: r})
			sameQ(t, "ScheduleReply.Now", sc.Now, r)
			sameQ(t, "ScheduleReply.Makespan", sc.Makespan, r)
			sameQ(t, "ScheduleArgs.Since", roundTrip(t, ScheduleArgs{Since: r}).Since, r)
			sameQ(t, "InstallArgs.Retention", roundTrip(t, InstallArgs{Retention: r}).Retention, r)

			// The stats snapshot carries the shard's ledger whole.
			st := roundTrip(t, StatsSnapshot{
				Wire: model.ShardStats{Shard: 2, Backlog: "0"}, Now: r,
				Totals: ShardTotals{ArrivalBatches: 4, LastCompact: &r, MakespanHW: &r,
					FlowTotals: FlowTotals{DoneCount: 3, FlowSum: r, MaxWF: r, MaxStretch: r}},
				Tenants: TenantLedger{"gold": {
					Submitted: 2, Completed: 1, Backlog: r, FlowSum: &r, MaxWF: r, ByClass: map[string]int{"premium": 2},
				}},
			})
			sameQ(t, "StatsSnapshot.Now", st.Now, r)
			sameQ(t, "ShardTotals.LastCompact", orZero(st.Totals.LastCompact), r)
			sameQ(t, "ShardTotals.MakespanHW", orZero(st.Totals.MakespanHW), r)
			sameQ(t, "FlowTotals.FlowSum", st.Totals.FlowSum, r)
			sameQ(t, "FlowTotals.MaxWF", st.Totals.MaxWF, r)
			sameQ(t, "FlowTotals.MaxStretch", st.Totals.MaxStretch, r)
			gold, ok := st.Tenants["gold"]
			if !ok || st.Wire.Shard != 2 || st.Totals.ArrivalBatches != 4 || st.Totals.DoneCount != 3 ||
				gold.Submitted != 2 || gold.Completed != 1 || gold.ByClass["premium"] != 2 {
				t.Fatalf("StatsSnapshot arrived as %+v", st)
			}
			sameQ(t, "TenantTotals.Backlog", gold.Backlog, r)
			sameQ(t, "TenantTotals.MaxWF", gold.MaxWF, r)
			sameQ(t, "TenantTotals.FlowSum", orZero(gold.FlowSum), r)
		})
	}
}

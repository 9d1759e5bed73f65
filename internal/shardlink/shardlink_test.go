package shardlink

import (
	"bytes"
	"encoding/gob"
	"math/big"
	"testing"

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

// sameRat is the exactness contract of the boundary for one rational field:
// nil stays nil, and a non-nil value — the exact zero included — arrives
// non-nil and equal. The router compares replies like RouteInfoReply.Backlog
// unconditionally, so a transport that turned new(big.Rat) into nil would
// crash it.
func sameRat(t *testing.T, field string, got, want *big.Rat) {
	t.Helper()
	switch {
	case want == nil && got != nil:
		t.Errorf("%s: nil arrived as %s", field, got.RatString())
	case want != nil && got == nil:
		t.Errorf("%s: %s arrived as nil", field, want.RatString())
	case want != nil && got.Cmp(want) != 0:
		t.Errorf("%s: %s arrived as %s", field, want.RatString(), got.RatString())
	}
}

// TestMigrationMessagesSurviveGob round-trips every message of the migration
// exchange, plus the routing key, with zero-valued, nil and non-trivial
// rationals in every rational field.
func TestMigrationMessagesSurviveGob(t *testing.T) {
	// A numerator and denominator past 64 bits: exactness is not a float's.
	huge, _ := new(big.Rat).SetString("123456789012345678901234567890/987654321098765432109876543211")
	// (2^128+1)/(2^128-1): both halves need a 129th bit.
	wide, _ := new(big.Rat).SetString("340282366920938463463374607431768211457/340282366920938463463374607431768211455")
	for name, r := range map[string]*big.Rat{
		"wide":     wide,
		"zero":     new(big.Rat),
		"nil":      nil,
		"third":    big.NewRat(1, 3),
		"negative": big.NewRat(-7, 2),
		"huge":     huge,
	} {
		t.Run(name, func(t *testing.T) {
			job := MigratedJob{FromLocal: 4, GID: 9, Remaining: r, Counted: true, Job: model.Job{
				Name: "blast", Weight: r, Size: r, Release: r, Databanks: []string{"swissprot", "pdb"},
				Deadline: r, Tenant: "gold", SLAClass: "premium",
			}}
			checkJob := func(msg string, got MigratedJob) {
				t.Helper()
				sameRat(t, msg+".Weight", got.Weight, r)
				sameRat(t, msg+".Size", got.Size, r)
				sameRat(t, msg+".Release", got.Release, r)
				sameRat(t, msg+".Remaining", got.Remaining, r)
				sameRat(t, msg+".Deadline", got.Deadline, r)
				if got.FromLocal != 4 || got.GID != 9 || got.Name != "blast" || !got.Counted ||
					got.Tenant != "gold" || got.SLAClass != "premium" || len(got.Databanks) != 2 {
					t.Errorf("%s: scalar fields arrived as %+v", msg, got)
				}
			}
			checkJob("MigratedJob", roundTrip(t, job))

			ex := roundTrip(t, ExtractReply{Jobs: []MigratedJob{job, job}, From: 3, At: r})
			sameRat(t, "ExtractReply.At", ex.At, r)
			if ex.From != 3 || len(ex.Jobs) != 2 {
				t.Fatalf("ExtractReply arrived as %+v", ex)
			}
			checkJob("ExtractReply.Jobs[1]", ex.Jobs[1])

			ad := roundTrip(t, AdmitArgs{Jobs: []MigratedJob{job}, Reason: "steal", From: 3, At: r})
			sameRat(t, "AdmitArgs.At", ad.At, r)
			if ad.From != 3 || ad.Reason != "steal" || len(ad.Jobs) != 1 {
				t.Fatalf("AdmitArgs arrived as %+v", ad)
			}
			checkJob("AdmitArgs.Jobs[0]", ad.Jobs[0])

			route := RouteInfoReply{Backlog: r, Err: "stalled"}
			if r != nil { // the shard omits tenants without backlog; a map holds no nil
				route.TenantBacklog = map[string]*big.Rat{"gold": r}
			}
			ri := roundTrip(t, route)
			sameRat(t, "RouteInfoReply.Backlog", ri.Backlog, r)
			sameRat(t, "RouteInfoReply.TenantBacklog[gold]", ri.TenantBacklog["gold"], r)
			if ri.Err != "stalled" {
				t.Errorf("RouteInfoReply.Err arrived as %q", ri.Err)
			}

			// The stats snapshot carries the shard's ledger whole: a zero flow
			// sum or backlog must arrive as the zero it was, not as nil.
			st := roundTrip(t, StatsSnapshot{
				Wire: model.ShardStats{Shard: 2, Backlog: "0"}, Now: r,
				Totals: ShardTotals{ArrivalBatches: 4, LastCompact: r, MakespanHW: r, FrozenNow: r,
					FlowTotals: FlowTotals{DoneCount: 3, FlowSum: r, MaxWF: r, MaxStretch: r}},
				Tenants: TenantLedger{"gold": {
					Submitted: 2, Completed: 1, Backlog: r, FlowSum: r, MaxWF: r, ByClass: map[string]int{"premium": 2},
				}},
			})
			sameRat(t, "StatsSnapshot.Now", st.Now, r)
			sameRat(t, "ShardTotals.LastCompact", st.Totals.LastCompact, r)
			sameRat(t, "ShardTotals.MakespanHW", st.Totals.MakespanHW, r)
			sameRat(t, "ShardTotals.FrozenNow", st.Totals.FrozenNow, r)
			sameRat(t, "FlowTotals.FlowSum", st.Totals.FlowSum, r)
			sameRat(t, "FlowTotals.MaxWF", st.Totals.MaxWF, r)
			sameRat(t, "FlowTotals.MaxStretch", st.Totals.MaxStretch, r)
			gold, ok := st.Tenants["gold"]
			if !ok || st.Wire.Shard != 2 || st.Totals.ArrivalBatches != 4 || st.Totals.DoneCount != 3 ||
				gold.Submitted != 2 || gold.Completed != 1 || gold.ByClass["premium"] != 2 {
				t.Fatalf("StatsSnapshot arrived as %+v", st)
			}
			sameRat(t, "TenantTotals.Backlog", gold.Backlog, r)
			sameRat(t, "TenantTotals.FlowSum", gold.FlowSum, r)
			sameRat(t, "TenantTotals.MaxWF", gold.MaxWF, r)
		})
	}

	// The rational-free messages: slices and flags must arrive intact, and an
	// all-zero message (gob sends it as an empty struct) must decode at all.
	if got := roundTrip(t, AdmitReply{Accepted: true, Locals: []int{0, 5}}); !got.Accepted || len(got.Locals) != 2 || got.Locals[1] != 5 {
		t.Errorf("AdmitReply arrived as %+v", got)
	}
	if got := roundTrip(t, CommitArgs{Locals: []int{0, 2}}); len(got.Locals) != 2 || got.Locals[0] != 0 || got.Locals[1] != 2 {
		t.Errorf("CommitArgs arrived as %+v", got)
	}
	if got := roundTrip(t, AbortArgs{Locals: []int{7}}); len(got.Locals) != 1 || got.Locals[0] != 7 {
		t.Errorf("AbortArgs arrived as %+v", got)
	}
	if got := roundTrip(t, ExtractArgs{All: true}); !got.All || got.ThiefMachines != nil {
		t.Errorf("ExtractArgs arrived as %+v", got)
	}
	roundTrip(t, AdmitReply{})
	roundTrip(t, ExtractReply{})
}

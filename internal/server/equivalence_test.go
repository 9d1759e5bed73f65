package server

import (
	"fmt"
	"testing"

	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/sim"
	"divflow/internal/workload"
)

// TestSingleShardEquivalence pins the sharding refactor to the pre-shard
// behavior: a one-shard server driven over a virtual clock — each job
// submitted exactly at its release date — must execute event-for-event the
// same trace as the closed-world simulator (sim.Run) on the identical
// instance: the same pieces (machine, job, window, fraction) in the same
// order, hence the same completions and flows. Both steal settings are
// driven: with P=1 stealing is vacuous (there is no other shard to steal
// from), so steal=on must replay exactly like steal=off.
func TestSingleShardEquivalence(t *testing.T) {
	for _, policy := range []string{"online-mwf-lazy", "mct", "srpt"} {
		for _, seed := range []int64{1, 4, 9} {
			for _, steal := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/seed=%d/steal=%v", policy, seed, steal), func(t *testing.T) {
					testSingleShardEquivalence(t, policy, seed, steal)
				})
			}
		}
	}
}

func testSingleShardEquivalence(t *testing.T, policy string, seed int64, steal bool) {
	cfg := workload.Default()
	cfg.Jobs = 12
	cfg.Machines = 3
	cfg.Seed = seed
	inst := workload.MustGenerate(cfg)

	refPol, err := NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(inst, refPol)
	if err != nil {
		t.Fatal(err)
	}

	vc := NewVirtualClock()
	srv, err := New(Config{Machines: inst.Machines, Policy: policy, Clock: vc, Shards: 1, DisableSteal: !steal})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()

	// Submit each job at exactly its release date, waiting for
	// admission before moving the clock again — the service then
	// sees the same arrival sequence as the simulator.
	submitted := 0
	for j := 0; j < inst.N(); {
		r := inst.Jobs[j].Release
		vc.Advance(r)
		for j < inst.N() && inst.Jobs[j].Release.Cmp(r) == 0 {
			resp, err := srv.Submit(&model.SubmitRequest{
				Name:      inst.Jobs[j].Name,
				Weight:    inst.Jobs[j].Weight.RatString(),
				Size:      inst.Jobs[j].Size.RatString(),
				Databanks: inst.Jobs[j].Databanks,
			})
			if err != nil {
				t.Fatal(err)
			}
			if resp.ID != j {
				t.Fatalf("job %d got global ID %d; one shard must keep IDs dense", j, resp.ID)
			}
			j++
			submitted++
		}
		waitStats(t, srv, func(st model.StatsResponse) bool {
			return st.BatchedArrivals >= submitted
		})
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == inst.N() })

	sh := srv.active()[0]
	sh.mu.Lock()
	got := append([]schedule.Piece(nil), sh.eng.Schedule().Pieces...)
	completions := make([]string, inst.N())
	for id := range completions {
		completions[id] = sh.records.get(id).Completed.String()
	}
	sh.mu.Unlock()

	comparePieces(t, got, ref.Schedule.Pieces)
	refCompletions := ref.Schedule.Completions(inst.N())
	for id := range completions {
		if completions[id] != refCompletions[id].RatString() {
			t.Errorf("job %d completes at %s, simulator at %s",
				id, completions[id], refCompletions[id].RatString())
		}
	}
	if st := srv.Stats(); st.MaxWeightedFlow != ref.MaxWeightedFlow.RatString() {
		t.Errorf("maxWeightedFlow = %s, simulator %s", st.MaxWeightedFlow, ref.MaxWeightedFlow.RatString())
	}
}

// comparePieces requires two executed traces to match piece-for-piece.
func comparePieces(t *testing.T, got, want []schedule.Piece) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace has %d pieces, reference has %d\nserver:\n%v\nref:\n%v",
			len(got), len(want), (&schedule.Schedule{Pieces: got}).String(), (&schedule.Schedule{Pieces: want}).String())
	}
	for k := range want {
		g, w := &got[k], &want[k]
		if g.Machine != w.Machine || g.Job != w.Job ||
			g.Start.Cmp(w.Start) != 0 || g.End.Cmp(w.End) != 0 ||
			g.Fraction.Cmp(w.Fraction) != 0 {
			t.Fatalf("piece %d diverges: server M%d J%d [%s,%s) f=%s, ref M%d J%d [%s,%s) f=%s",
				k, g.Machine, g.Job, g.Start.RatString(), g.End.RatString(), g.Fraction.RatString(),
				w.Machine, w.Job, w.Start.RatString(), w.End.RatString(), w.Fraction.RatString())
		}
	}
}

// TestStealOffShardEquivalence pins the -steal=false code path to PR 3
// behavior on a *multi*-shard fleet: with stealing disabled each shard is an
// independent scheduling loop over exactly the jobs the router gave it, so
// its trace must replay event-for-event like the closed-world simulator run
// on that shard's machines and routed jobs. (With stealing enabled the
// same workload may migrate — the point of the feature; this test is the
// control group proving the flag really pins the old behavior.)
func TestStealOffShardEquivalence(t *testing.T) {
	for _, policy := range []string{"online-mwf-lazy", "srpt"} {
		t.Run(policy, func(t *testing.T) {
			cfg := workload.Default()
			cfg.Jobs = 14
			cfg.Machines = 4
			cfg.Seed = 3
			base := workload.MustGenerate(cfg)

			vc := NewVirtualClock()
			srv, err := New(Config{Machines: uniformFleet(4), Policy: policy, Clock: vc, Shards: 2, DisableSteal: true})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.Start()

			submitted := 0
			for j := 0; j < base.N(); {
				r := base.Jobs[j].Release
				vc.Advance(r)
				for j < base.N() && base.Jobs[j].Release.Cmp(r) == 0 {
					if _, err := srv.Submit(&model.SubmitRequest{
						Name:   base.Jobs[j].Name,
						Weight: base.Jobs[j].Weight.RatString(),
						Size:   base.Jobs[j].Size.RatString(),
						// Hosted by every machine: the router is free to
						// balance, and (were stealing on) any shard could
						// steal — the adversarial case for the flag.
						Databanks: []string{"shared"},
					}); err != nil {
						t.Fatal(err)
					}
					j++
					submitted++
				}
				waitStats(t, srv, func(st model.StatsResponse) bool {
					return st.BatchedArrivals >= submitted
				})
			}
			drive(t, vc, func() bool { return srv.Stats().JobsCompleted == base.N() })

			st := srv.Stats()
			if st.Migrations != 0 || st.StolenJobs != 0 {
				t.Fatalf("steal=off migrated %d/%d jobs", st.Migrations, st.StolenJobs)
			}
			// Per shard: rebuild the instance the router effectively gave it
			// (records in local-ID order are release-ordered) and require the
			// shard's trace to match the closed-world simulator exactly.
			for _, sh := range srv.allShards() {
				sh.mu.Lock()
				jobs := make([]model.Job, sh.records.next())
				for i := range jobs {
					jobs[i] = modelJob(sh.records.get(i).Job)
				}
				got := append([]schedule.Piece(nil), sh.eng.Schedule().Pieces...)
				machines := sh.machines
				sh.mu.Unlock()
				if len(jobs) == 0 {
					t.Fatalf("shard %d got no jobs; routing starved it", sh.idx)
				}
				inst, err := model.NewInstance(jobs, machines)
				if err != nil {
					t.Fatal(err)
				}
				refPol, err := NewPolicy(policy)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sim.Run(inst, refPol)
				if err != nil {
					t.Fatalf("shard %d reference run: %v", sh.idx, err)
				}
				comparePieces(t, got, ref.Schedule.Pieces)
			}
		})
	}
}

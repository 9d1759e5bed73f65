package server

import (
	"math/big"
	"sync"
	"sync/atomic"
	"testing"

	"divflow/internal/model"
)

// TestLocateMultiHopForwardingChain is the direct test of Server.locate's
// forwarding-chain traversal: a job migrates twice (birth shard 0 → shard 1
// → back to shard 0 under a fresh local ID) while concurrent readers hammer
// its global ID, and afterwards retention compaction erases the whole chain.
// Invariants pinned:
//
//   - at every moment between submission and compaction, the global ID
//     resolves — the jobStatus retry loop absorbs the window in which an
//     arithmetic decode lands on a record the migration just vacated;
//   - after the second hop the forwarding table points at the *final* owner
//     (entries are overwritten, not chained — each read is O(1) hops);
//   - compaction releases the forwarding entry via the job's current owner
//     only, and a post-compaction read misses definitively in one attempt.
func TestLocateMultiHopForwardingChain(t *testing.T) {
	vc := NewVirtualClock()
	// Stealing is disabled so the two migrations below are the only ones:
	// the hops are driven explicitly through the same stealFrom machinery
	// the automatic protocol uses. Retention 4 bounds the history.
	srv, err := New(Config{
		Machines:     uniformFleet(4),
		Shards:       2,
		Policy:       "srpt",
		Clock:        vc,
		DisableSteal: true,
		Retention:    rat(4, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sh0, sh1 := srv.active()[0], srv.active()[1]

	idJ0 := submitTo(t, sh0, "6", "shared")
	idJ1 := submitTo(t, sh0, "2", "shared")
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 2 })

	// Concurrent readers: until the migration phase ends, the ID must
	// resolve on every single attempt, no matter which hop is in flight.
	var stopAsserting atomic.Bool
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, known := srv.jobStatus(idJ0)
				if !known && !stopAsserting.Load() {
					t.Errorf("global ID %d failed to resolve mid-migration", idJ0)
					return
				}
			}
		}()
	}

	// Hop 1 at t=1: shard 1 (idle) takes J0, the largest remaining work
	// (5/6 of size 6 after the donor catch-up, vs 1/2 of size 2 for J1).
	// stealFrom catches the donor up to the clock itself; the thief is
	// poked manually, standing in for the loop-side steal it would have
	// initiated itself with stealing enabled.
	vc.Advance(rat(1, 1))
	if !srv.stealFrom(sh1, sh0) {
		t.Fatal("hop 1 moved nothing")
	}
	sh1.poke()
	if sh, _, ok := srv.locate(idJ0); !ok || sh != sh1 {
		t.Fatalf("after hop 1, locate(%d) = %v, want shard 1", idJ0, sh)
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.Shards[1].JobsLive == 1 })

	// J1 finishes on shard 0 at t=2; J2 lands on shard 1 so its census
	// reaches two jobs (a donor never gives up its only job).
	vc.Advance(rat(2, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.JobsCompleted == 1 })
	idJ2 := submitTo(t, sh1, "3", "shared")
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 3 })

	// Hop 2 at t=3: shard 0 (idle again) takes J0 back — at 1/2 of size 6
	// it still outweighs J2's 2/3 of size 3. The forwarding entry must now
	// name shard 0 with J0's *new* local slot, not chain through shard 1.
	vc.Advance(rat(3, 1))
	if !srv.stealFrom(sh0, sh1) {
		t.Fatal("hop 2 moved nothing")
	}
	sh0.poke()
	sh, local, ok := srv.locate(idJ0)
	if !ok || sh != sh0 {
		t.Fatalf("after hop 2, locate(%d) = %v, want shard 0 again", idJ0, sh)
	}
	if local == idJ0 {
		t.Fatalf("after hop 2, local slot %d equals the birth slot: the job did not get a fresh record", local)
	}
	st, known := srv.jobStatus(idJ0)
	if !known || st.ID != idJ0 || st.State == StateMigrated {
		t.Fatalf("after two hops, jobStatus(%d) = %+v known=%v", idJ0, st, known)
	}

	// Drain the workload, then let the retention horizon swallow the whole
	// chain; the readers keep racing the compaction (without asserting —
	// a compacted record is a legitimate definitive miss).
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 3 })
	_, _ = idJ1, idJ2
	stopAsserting.Store(true)
	vc.Advance(rat(20, 1))
	sh0.poke()
	sh1.poke()
	waitStats(t, srv, func(st model.StatsResponse) bool {
		// Five records: J0's birth + intermediate + final, J1, J2.
		return st.CompactedJobs == 5
	})
	close(stop)
	readers.Wait()

	if st, known := srv.jobStatus(idJ0); known {
		t.Fatalf("compacted job %d still resolves: %+v", idJ0, st)
	}
	srv.topoMu.RLock()
	entries := len(srv.forward)
	srv.topoMu.RUnlock()
	if entries != 0 {
		t.Errorf("forwarding table holds %d entries after compaction, want 0", entries)
	}
}

// TestLocateChasesReshardThenSteal layers the two migration sources: a job
// stolen onto another shard is then swept up by a structural reshard that
// retires every generation-0 shard. Its global ID — issued under the old
// encoding, forwarded twice, finally owned by a generation-1 shard — must
// resolve throughout, and the merged trace must account for every fraction.
func TestLocateChasesReshardThenSteal(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 2, Policy: "srpt", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sh0 := srv.active()[0]

	// Shard 0 is loaded, shard 1 idle: the steal protocol moves the bigger
	// job over as soon as the loops run.
	idBig := submitTo(t, sh0, "8", "shared")
	idSmall := submitTo(t, sh0, "2", "shared")
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.StolenJobs >= 1 })

	// Mid-flight structural reshard: 2 shards → 4. Every generation-0 shard
	// retires (singleton groups match nothing), so the stolen job migrates a
	// second time, onto a generation-1 shard.
	vc.Advance(rat(1, 1))
	resp, err := srv.Reshard(&model.Platform{Machines: uniformFleet(4), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.RetiredShards) != 2 || len(resp.SpawnedShards) != 4 {
		t.Fatalf("reshard = %+v, want 2 retired / 4 spawned", resp)
	}
	for _, id := range []int{idBig, idSmall} {
		if _, known := srv.jobStatus(id); !known {
			t.Errorf("ID %d lost across steal+reshard", id)
		}
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })
	for _, id := range []int{idBig, idSmall} {
		st, known := srv.jobStatus(id)
		if !known || st.State != StateDone {
			t.Errorf("job %d = %+v known=%v, want done", id, st, known)
		}
		flow, ok := new(big.Rat).SetString(st.Flow)
		if !ok || flow.Sign() <= 0 {
			t.Errorf("job %d flow = %q, want positive", id, st.Flow)
		}
	}
	validateServer(t, srv)
}

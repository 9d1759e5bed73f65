package server

import (
	"fmt"
	"sort"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
)

// Cross-shard work stealing. PR 3's router pins a job to the shard it was
// routed to, so once load shifts an idle shard cannot help an overloaded
// one — exactly the flexibility the divisible-load model exists to exploit.
// The steal protocol closes that gap: an idle shard asks the server for
// work, and the server migrates jobs (queued or live, with their exact
// remaining fractions) from the largest-backlog shard whose databanks the
// thief hosts. Migrated jobs keep their global ID, flow origin, and every
// piece of work already executed; the forwarding table makes the move
// invisible on the wire. This file also holds migrate, the one way a job
// changes shard, and the restore-time repairs of a migration a crash cut
// short.

// stealFor migrates work onto an idle thief shard, trying donors in order
// of decreasing backlog. It reports whether any job moved. Donors come from
// the *active* topology: retired shards have nothing left to give, and a
// retired thief refuses the adoption.
func (s *Server) stealFor(thief *shard) bool {
	routes, _ := readRoutes(s.active())
	donors := routes[:0]
	for _, r := range routes {
		if r.sh != thief && r.Backlog.Sign() > 0 {
			donors = append(donors, r)
		}
	}
	sort.SliceStable(donors, func(a, b int) bool {
		return donors[a].Backlog.Cmp(donors[b].Backlog) > 0
	})
	for _, r := range donors {
		if s.stealFrom(thief, r.sh) {
			return true
		}
	}
	return false
}

// stealFrom moves up to half of the donor's jobs — those the thief can host,
// largest remaining work first — onto the thief, in one migration that holds
// both shards.
//
// It runs under a reshardMu TryRLock: retired/closed only flip under the
// write lock, so the read lock pins both shards' dispositions across the
// migration, and keeps a reshard, a snapshot and Close away from it. Steals
// share it: two that share a shard serialize on its mutex. Try, not block —
// Close and Reshard wait for shard loops to stop while holding the write
// lock, so a loop must never wait for it; skipping one steal attempt is free.
func (s *Server) stealFrom(thief, donor *shard) bool {
	if !s.reshardMu.TryRLock() {
		return false
	}
	defer s.reshardMu.RUnlock()
	// Timed end to end — donor catch-up included, since that catch-up (and
	// any exact re-solve it triggers) is the real cost of a steal.
	start := s.tel.now()
	moved := s.migrate(donor, []*shard{thief}, migrateSteal,
		func(*shardlink.MigratedJob) *shard { return thief })
	if moved == 0 {
		return false
	}
	if !start.IsZero() {
		thief.stealSeconds.Observe(s.tel.sinceSeconds(start))
	}
	// Both loops re-arm: the donor's next event changed (stolen completions
	// vanished), and the thief has fresh pending work to admit.
	_ = donor.link.Poke(shardlink.PokeArgs{})
	_ = thief.link.Poke(shardlink.PokeArgs{})
	return true
}

// Migration reasons carried in shardlink.AdmitArgs and the WAL. A steal takes
// part of a serving donor's work; a reshard drains a retired donor whole.
const (
	migrateSteal   = "steal"
	migrateReshard = "reshard"
)

// migrate is the one way a job changes shard — "move job j with remaining
// fraction ρ_j from shard A to shard B", the divisible-load model's one
// structural operation — whatever asked for the move: a steal, a reshard
// draining a retired shard, the restore-time repair. It is one section under
// the mutexes of the donor and every candidate destination, taken together
// by cut: the donor extracts, pick names each job's destination among dests,
// every destination adopts its share, the forwarding table learns the new
// owners, and the donor commits what moved and takes back, exact remaining
// fractions intact, whatever no destination adopted. So no work is ever lost
// or duplicated, and no reader that takes a shard's mu sees a step half done
// (the routing keys, read without one, are published step by step). Each
// step is one transition through shardCore.run, logged in that order.
// Callers hold reshardMu (a steal shared, a reshard and the repair
// exclusively). It returns how many jobs moved.
//
//divflow:locks requires=reshard
func (s *Server) migrate(donor *shard, dests []*shard, reason string, pick func(*shardlink.MigratedJob) *shard) (moved int) {
	hosts := func(databanks []string) bool {
		for _, d := range dests {
			if d.hosts(databanks) {
				return true
			}
		}
		return false
	}
	//divflow:locks requires=reshard,shard
	s.cut(append([]*shard{donor}, dests...), func([]*shard) {
		ex := donor.extractJobs(reason == migrateReshard, hosts)
		if ex == nil {
			return
		}
		// One adoption per destination, jobs in extraction order within each.
		var order []*shard
		share := make(map[*shard][]shardlink.MigratedJob)
		var gone, back []int
		for i := range ex.jobs {
			mj := &ex.jobs[i]
			dest := pick(mj)
			if dest == nil {
				s.tel.event(obs.EventReject, s.Generation(), mj.GID,
					fmt.Sprintf("no shard hosts databanks %v; the job stays on shard %d", mj.Databanks, donor.idx))
				back = append(back, mj.FromLocal)
				continue
			}
			if share[dest] == nil {
				order = append(order, dest)
			}
			share[dest] = append(share[dest], *mj)
		}
		for _, dest := range order {
			jobs := share[dest]
			ad := &recAdopt{Shard: dest.idx, AdmitArgs: shardlink.AdmitArgs{Jobs: jobs, Reason: reason, From: donor.idx, At: ex.At}}
			// A closed destination refuses before its transition does.
			adopted := !dest.closed && dest.run(ad) == nil
			if adopted {
				// The donor's records flip to migrated at the commit below;
				// a locate from here on already finds the destination.
				s.forwardTo(dest, jobs, ad.locals)
			}
			for i := range jobs {
				if adopted {
					gone = append(gone, jobs[i].FromLocal)
				} else {
					back = append(back, jobs[i].FromLocal)
				}
			}
		}
		donor.settle(walTypeAbort, back)
		donor.settle(walTypeCommit, gone)
		moved = len(gone)
	})
	return moved
}

// extractJobs is the donor's step of a migration: catch up, select — every
// queued or live job when all (a reshard draining a retired shard), else the
// steal census of the jobs hosts accepts — and run the extract transition on
// the selection. It returns the extraction, nil when nothing moves.
//
//divflow:locks requires=shard
func (sh *shard) extractJobs(all bool, hosts func(databanks []string) bool) *recExtract {
	// A closed donor is off limits — during Server.Close a still-running
	// shard must not extract live jobs from an already-drained one just to
	// have its own close() mark them rejected. Retirement must match the
	// mode: a steal never touches a shard a reshard is draining.
	if sh.closed || sh.retired != all {
		return nil
	}
	// Remaining fractions must reflect everything (notionally) executed up
	// to the present — the engine may be asleep at its last event — and the
	// catch-up's re-solve must happen before the selection reads the engine.
	// A latched donor skips it and still gives: its jobs are better off
	// anywhere else.
	if sh.lastErr == nil {
		sh.catchUpTo(sh.now())
	}
	var locals []int
	if all {
		for _, v := range sh.census() {
			locals = append(locals, v.ID)
		}
	} else {
		locals = sh.stealCensus(hosts)
	}
	if len(locals) == 0 {
		return nil
	}
	r := &recExtract{Shard: sh.idx, At: sh.eng.Now(), Locals: locals}
	if err := sh.run(r); err != nil {
		sh.fail(err)
		return nil
	}
	return r
}

// settle finishes a migration on the donor: the commit transition (kind
// walTypeCommit) of the jobs the destinations adopted, the abort transition
// of those they refused, or that no shard hosts. An abort wakes the donor to
// re-admit them.
//
//divflow:locks requires=shard
func (sh *shard) settle(kind string, locals []int) {
	if len(locals) == 0 {
		return
	}
	if err := sh.run(&recSettle{Shard: sh.idx, Locals: locals, kind: kind}); err != nil {
		sh.fail(err)
	}
	if kind == walTypeAbort {
		sh.poke()
	}
}

// finishMigrations settles every migration a crash cut in half: its reserved
// records — extracted, neither committed nor aborted — are still on the
// donor. A reservation whose job a destination already adopted (the
// forwarding table names another shard) is committed; one nobody adopted is
// aborted, and the donor keeps the job. The log is attached by now, so the
// settlement itself is durable.
func (s *Server) finishMigrations() {
	for _, sh := range s.all {
		var adopted, orphaned []int
		sh.mu.Lock()
		for _, rec := range sh.records.recs {
			if rec == nil || rec.MigratedAt == nil || rec.State == StateMigrated {
				continue
			}
			if owner, _, _ := s.locate(rec.GID); owner != sh {
				adopted = append(adopted, rec.ID)
			} else {
				orphaned = append(orphaned, rec.ID)
			}
		}
		sh.settle(walTypeCommit, adopted)
		sh.settle(walTypeAbort, orphaned)
		sh.drain() // unlock, which the lock checker cannot follow in a loop
		sh.mu.Unlock()
	}
}

// repairRetired finishes an interrupted reshard: a crash after the topology
// record leaves queued or live jobs on retired shards. They are drained
// through migrate — with the log attached, so the repair itself is durable —
// using the same least-residual-work placement the reshard would have used,
// in the same order, so the repaired run matches the uninterrupted one.
//
//divflow:locks requires=reshard
func (s *Server) repairRetired(now exact.Q) {
	newest := s.gens[len(s.gens)-1].shards
	place := newPlacement(newest)
	for _, donor := range s.all {
		// The donor catches up to the restored virtual time before extracting:
		// the lost extract record is what carried the original donor's
		// catch-up to the reshard time, so without this the work it executed
		// since its last replayed record would be retroactively discarded and
		// the repaired remainings would not match the uninterrupted run's.
		if donor.catchUpRetired(now) {
			s.migrate(donor, newest, migrateReshard, place.pick)
		}
	}
}

// catchUpRetired catches a retired donor up to now under its own mu before
// the migration that drains it, so its re-solves hold no destination's mu; a
// latched donor skips it and still gives. It reports whether the donor has
// history to give: a closed or fully compacted one has none.
func (sh *shard) catchUpRetired(now exact.Q) bool {
	sh.mu.Lock()
	defer sh.unlock()
	if !sh.retired || sh.closed || sh.historyEmpty() {
		return false
	}
	if sh.lastErr == nil {
		sh.catchUpTo(now)
	}
	return true
}

// forwardTo points the forwarding table at the destination records of adopted
// jobs (locals parallel to jobs).
func (s *Server) forwardTo(dest *shard, jobs []shardlink.MigratedJob, locals []int) {
	s.topoMu.Lock()
	for i := range jobs {
		s.forward[jobs[i].GID] = fwdLoc{sh: dest, local: locals[i]}
	}
	s.topoMu.Unlock()
}

// dropForward releases the forwarding entries of compacted stolen records;
// the compacting shard calls it under its own mu.
func (s *Server) dropForward(gids []int) {
	s.topoMu.Lock()
	for _, gid := range gids {
		delete(s.forward, gid)
	}
	s.topoMu.Unlock()
}

// locate resolves a global job ID to the shard that currently owns it and
// the job's local ID there: migrated jobs through the forwarding table,
// everything else by the arithmetic encoding of the generation that issued
// the ID — the newest generation whose base does not exceed it (bases
// strictly increase, and each generation only issues IDs at or above its
// base, so the match is unique).
func (s *Server) locate(id int) (*shard, int, bool) {
	if id < 0 {
		return nil, 0, false
	}
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	if loc, ok := s.forward[id]; ok {
		return loc.sh, loc.local, true
	}
	for g := len(s.gens) - 1; g >= 0; g-- {
		gen := s.gens[g]
		if id < gen.base {
			continue
		}
		off := id - gen.base
		return gen.shards[off%gen.stride], off / gen.stride, true
	}
	return nil, 0, false // unreachable: generation 0 has base 0
}

// jobStatus reads one job's wire status by global ID, chasing the forwarding
// table: a read that decoded the birth shard arithmetically while a
// migration was in flight finds a migrated-away record and retries, by which
// time the table (written under the donor's lock) names the new owner.
// Never-issued IDs and compacted records answer not-found; a miss on a nil
// record is only definitive after re-resolving the ID to the same place,
// because a slow read can land on a stale location whose record was both
// migrated away *and* compacted in the meantime — the forwarding table then
// already names the live owner, and answering 404 would vanish a live job.
// (Location pairs are never reused — records only append — so a re-resolve
// that still matches really means the record is gone for good.) Each retry
// can only miss again if the job migrated yet another time in between.
func (s *Server) jobStatus(id int) (model.JobStatus, bool) {
	var prevSh *shard
	prevLocal := -1
	for attempt := 0; attempt < 6; attempt++ {
		sh, local, ok := s.locate(id)
		if !ok {
			return model.JobStatus{}, false
		}
		// The same location twice in a row means nothing moved between the
		// attempts — the miss is permanent. This is the terminal state of a
		// fully compacted migration chain: the dangling donor record keeps
		// answering "migrated away" while the forwarding entry it once had
		// is gone, and without this check every read of the dead ID would
		// burn all its attempts re-chasing it. (A migration in flight always
		// changes the resolved location, because records are never reused.)
		if sh == prevSh && local == prevLocal {
			return model.JobStatus{}, false
		}
		prevSh, prevLocal = sh, local
		rep, lerr := sh.link.JobStatus(shardlink.JobStatusArgs{Local: local, GID: id})
		if lerr != nil {
			return model.JobStatus{}, false
		}
		if rep.Known {
			return rep.Status, true
		}
		if rep.Migrated {
			continue
		}
		if sh2, local2, ok2 := s.locate(id); ok2 && (sh2 != sh || local2 != local) {
			continue // stale location: the job moved while we were reading
		}
		return model.JobStatus{}, false
	}
	return model.JobStatus{}, false
}

// placement chooses destinations for the jobs drained off retired shards — a
// reshard's drain and the restore-time repair — by the rule the router applies
// to submissions (pickRoute), off one read of the new topology taken before
// the first job moves, counting what it has itself placed since.
type placement struct {
	routes  []route
	warning string // first placement onto a stalled shard, for the response
}

func newPlacement(shards []*shard) *placement {
	routes, _ := readRoutes(shards)
	return &placement{routes: routes}
}

// pick returns the job's destination, nil when no shard hosts its databanks.
func (pl *placement) pick(mj *shardlink.MigratedJob) *shard {
	dest := pickRoute(pl.routes, mj.Databanks)
	if dest == nil {
		return nil
	}
	if dest.Err != "" && pl.warning == "" {
		pl.warning = fmt.Sprintf(
			"job %d migrated to stalled shard %d (no healthy shard hosts databanks %v): %s",
			mj.GID, dest.sh.idx, mj.Databanks, dest.Err)
	}
	dest.Backlog = dest.Backlog.Add(mj.Size)
	return dest.sh
}

// stealCensus takes the census of the shard's stealable jobs — everything
// pending or live that the host predicate accepts — and selects the
// migration set: largest remaining work first (ties to the oldest job), and
// never more than half the shard's jobs, so the donor keeps at least as much
// as it gives away. It returns the selection's local IDs.
//
//divflow:locks requires=shard
func (c *shardCore) stealCensus(hosts func([]string) bool) []int {
	// The census counts everything pending plus everything live — including
	// jobs the thief cannot host, which still anchor the half-rule below.
	census := c.census()
	if len(census) < 2 {
		// A donor running its only job gains nothing from losing it; moving
		// it would just relocate the same serial work (and invite the donor
		// to steal it straight back).
		return nil
	}
	type item struct {
		id   int
		work exact.Q // size · remaining: the exact work that would move
	}
	var items []item
	for _, v := range census {
		if hosts(c.records.get(v.ID).Databanks) {
			items = append(items, item{v.ID, v.Size.Mul(v.Remaining)})
		}
	}
	if len(items) == 0 {
		return nil
	}
	sort.SliceStable(items, func(a, b int) bool {
		if c := items[a].work.Cmp(items[b].work); c != 0 {
			return c > 0
		}
		return items[a].id < items[b].id
	})
	k := len(census) / 2
	if k > len(items) {
		k = len(items)
	}
	locals := make([]int, k)
	for i := range locals {
		locals[i] = items[i].id
	}
	return locals
}

package server

import (
	"fmt"
	"sort"

	"divflow/internal/exact"
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
// invisible on the wire.

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
// largest remaining work first — onto the thief, through the same exchange
// whether the two shards are a goroutine or a process apart.
//
// It runs under a reshardMu TryRLock: retired/closed only flip under the
// write lock, so the read lock pins both shards' dispositions across the
// multi-message window, and keeps a reshard, a snapshot and Close away from a
// half-done exchange. Steals share it: two exchanges interleave safely, each
// step being atomic on its one shard. Try, not block — Close and Reshard wait
// for shard loops to stop while holding the write lock, so a loop must never
// wait for it; skipping one steal attempt is free.
func (s *Server) stealFrom(thief, donor *shard) bool {
	if !s.reshardMu.TryRLock() {
		return false
	}
	defer s.reshardMu.RUnlock()
	// Timed end to end — donor catch-up included, since that catch-up (and
	// any exact re-solve it triggers) is the real cost of a steal.
	start := s.tel.now()
	moved := s.migrate(donor, shardlink.ExtractArgs{ThiefMachines: thief.machines}, migrateSteal,
		func(*shardlink.MigratedJob) *shard { return thief })
	if moved == 0 {
		return false
	}
	if !start.IsZero() {
		thief.obs.steal.Observe(thief.obs.sinceSeconds(start))
	}
	// Both loops re-arm: the donor's next event changed (stolen completions
	// vanished), and the thief has fresh pending work to admit.
	_ = donor.link.Poke(shardlink.PokeArgs{})
	_ = thief.link.Poke(shardlink.PokeArgs{})
	return true
}

// migrate is the one way a job changes shard, whatever asked for the move (a
// steal, a reshard draining a retired shard, the restore-time repair): the
// donor extracts and reserves; pick names each job's destination; every
// destination adopts its share; the forwarding table learns the new owners;
// the donor commits — and takes back whatever no destination adopted, exact
// remaining fractions intact, so no work is ever lost or duplicated. It holds
// no shard mutex itself: each step runs under the mu of the one shard it
// touches, behind that shard's link. Callers hold reshardMu (a steal shared,
// a reshard exclusively). It returns how many jobs moved.
func (s *Server) migrate(donor *shard, ex shardlink.ExtractArgs, reason string, pick func(*shardlink.MigratedJob) *shard) int {
	rep, err := donor.link.ExtractJobs(ex)
	if err != nil {
		return 0
	}
	// One adoption per destination, jobs in extraction order within each.
	var dests []*shard
	share := make(map[*shard][]shardlink.MigratedJob)
	var moved, back []int
	for i := range rep.Jobs {
		dest := pick(&rep.Jobs[i])
		if dest == nil {
			s.tel.event(obs.EventReject, s.Generation(), rep.Jobs[i].GID,
				fmt.Sprintf("no shard hosts databanks %v; the job stays on shard %d", rep.Jobs[i].Databanks, rep.From))
			back = append(back, rep.Jobs[i].FromLocal)
			continue
		}
		if share[dest] == nil {
			dests = append(dests, dest)
		}
		share[dest] = append(share[dest], rep.Jobs[i])
	}
	for _, dest := range dests {
		jobs := share[dest]
		ad, aerr := dest.link.AdmitMigrated(shardlink.AdmitArgs{Jobs: jobs, Reason: reason, From: rep.From, At: rep.At})
		refused := aerr != nil || !ad.Accepted || len(ad.Locals) != len(jobs)
		if !refused {
			// Forwarding entries land before the donor commits: between the
			// admit and the commit the job is readable on the donor (pre-move
			// state) and resolvable to the destination, never on neither.
			s.forwardTo(dest, jobs, ad.Locals)
		}
		for i := range jobs {
			if refused {
				back = append(back, jobs[i].FromLocal)
			} else {
				moved = append(moved, jobs[i].FromLocal)
			}
		}
	}
	if len(back) > 0 {
		_ = donor.link.AbortExtract(shardlink.AbortArgs{Locals: back})
	}
	if len(moved) > 0 {
		if err := donor.link.CommitExtract(shardlink.CommitArgs{Locals: moved}); err != nil {
			// The transport died between admit and commit: the destination
			// owns the jobs (the forwarding table already says so); the donor
			// keeps reserved records no census will ever offer again. Nothing
			// to unwind that would not lose work.
			s.tel.event(obs.EventShardStall, -1, -1,
				fmt.Sprintf("migration commit to shard %d failed: %v", donor.idx, err))
		}
	}
	return len(moved)
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
// as it gives away. It returns the selection's local IDs. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) stealCensus(hosts func([]string) bool) []int {
	// The census counts everything pending plus everything live — including
	// jobs the thief cannot host, which still anchor the half-rule below.
	census := sh.census()
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
		if hosts(sh.records.get(v.ID).Databanks) {
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

package server

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
	"divflow/internal/sim"
)

// Live re-sharding. The databank-connectivity partition is computed from the
// platform document, and until now it was computed exactly once, at startup:
// a replication or migration event that changes which hosts carry which
// databanks silently invalidated the sharding (work stealing softens load
// imbalance, but it cannot change shard *membership*). Reshard closes that
// gap by re-solving the partition quasi-statically, at runtime, against an
// updated platform:
//
//  1. recompute the partition over the new platform's machines;
//  2. diff it against the live shard set — a new group whose ordered
//     machine list (name, speed, databanks) is identical to a running
//     shard's keeps that shard untouched, engine, executed trace, plan
//     cache, warm-start basis chain and all;
//  3. retire every unmatched shard, spawn shards for the new groups and
//     advance the topology generation in one cut, so new global IDs decode
//     through the new shard count while old IDs keep resolving through the
//     generation that issued them;
//  4. drain each retired shard onto the new topology — exact remaining
//     fractions, original global IDs and flow origins — through the same
//     extract → admit → commit exchange work stealing uses (Server.migrate).
//
// A reshard whose platform induces the partition already running is a no-op:
// nothing migrates, the generation does not advance, and the server is
// pinned trace-identical to one that never resharded.

// sigField appends one field in a length-prefixed encoding, so no choice of
// machine or databank name (nothing validates them against delimiter
// characters) can make two different configurations encode identically.
func sigField(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// machineSignature is one machine's scheduling-relevant identity: a shard
// may only be kept across a reshard if its machines are pairwise identical
// under this signature (same name, same exact speed, same databank list in
// the same order — a databank permutation is treated as a change, which
// costs at most a spurious respawn, never a wrong keep).
func machineSignature(b *strings.Builder, m *model.Machine) {
	sigField(b, m.Name)
	sigField(b, m.InverseSpeed.RatString())
	b.WriteString(strconv.Itoa(len(m.Databanks)))
	b.WriteByte(';')
	for _, d := range m.Databanks {
		sigField(b, d)
	}
}

// groupSignature is the ordered identity of a whole machine group.
func groupSignature(machines []model.Machine) string {
	var b strings.Builder
	for i := range machines {
		machineSignature(&b, &machines[i])
	}
	return b.String()
}

// hostsAny reports whether some machine of the slice hosts every databank.
func hostsAny(machines []model.Machine, databanks []string) bool {
	for i := range machines {
		if machines[i].Hosts(databanks) {
			return true
		}
	}
	return false
}

// renumberRetired rewrites every non-active shard's machine indices into the
// new fleet, matching machines by name: the merged /v1/schedule interprets
// all pieces against the current platform, and without the remap a retired
// shard's history would keep indices into a fleet document that no longer
// exists — one response mixing two numbering schemes. Machines absent from
// the new platform keep their historical index (there is no right answer for
// a machine that left). Each mu is taken alone, after the topology publish,
// so lock ordering is trivial; active shards were renumbered by the caller.
func (s *Server) renumberRetired(newFleet []model.Machine, active []*shard) {
	nameIdx := make(map[string]int, len(newFleet))
	for i := range newFleet {
		if _, dup := nameIdx[newFleet[i].Name]; !dup {
			nameIdx[newFleet[i].Name] = i
		}
	}
	isActive := make(map[*shard]bool, len(active))
	for _, sh := range active {
		isActive[sh] = true
	}
	for _, sh := range s.allShards() {
		if isActive[sh] {
			continue
		}
		sh.mu.Lock()
		for i := range sh.machineIdx {
			if ni, ok := nameIdx[sh.machines[i].Name]; ok {
				sh.machineIdx[i] = ni
			}
		}
		sh.mu.Unlock()
	}
}

// reshardPlan is a structural reshard between its diff and its publish: the
// new partition, which running shard each group keeps (nil: spawn one), the
// shards left over to retire, and a ready policy per spawned group.
type reshardPlan struct {
	shards   int // the document's explicit "shards" override; 0 inherits
	fleet    []model.Machine
	groups   [][]int           // global machine indices per group
	machines [][]model.Machine // the same, resolved
	keep     []*shard          // per group; nil spawns
	retiring []*shard
	policies map[int]sim.Policy // per spawned group
}

// Reshard repartitions the running fleet against an updated platform
// document (the POST /v1/platform admin API and the daemon's SIGHUP reload
// both land here). It is atomic: either the whole new topology is installed
// with every affected job migrated, or — when some queued or live job's
// databanks are hosted by no machine of the new platform — nothing changes
// and an error describes the stranded job. Reads racing the reshard stay
// exact: a job waiting to be drained off a retired shard is readable there,
// its forwarding entry is written before the donor's record flips to
// migrated, so a read that decoded the job's birth shard arithmetically
// retries through the forwarding table exactly like a read racing a steal.
func (s *Server) Reshard(p *model.Platform) (model.ReshardResponse, error) {
	var resp model.ReshardResponse
	if s.noReshard {
		return resp, ErrReshardDisabled
	}
	if len(s.workers) > 0 {
		// Spawning a shard means provisioning an engine, and the worker
		// protocol can only do that at startup (Worker.Install): a reshard
		// would have nowhere to put the new topology's remote shards
		// (ROADMAP: partial-fleet failure semantics).
		return resp, errors.New("server: live re-sharding is not supported with worker-hosted shards; restart the fleet to repartition")
	}
	if p == nil || len(p.Machines) == 0 {
		return resp, errors.New("server: reshard: no machines")
	}
	if err := checkMachines("reshard: ", p.Machines); err != nil {
		return resp, err
	}
	// One topology change at a time; Close takes the same lock, so a closing
	// server cannot race a reshard spawning loops the shutdown would miss,
	// and every steal holds it shared, so no job moves except by this reshard.
	// s.shardsCfg is read and written under it too.
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return resp, ErrClosed
	}
	if err := s.dur.latchedErr(); err != nil {
		// Freeze-and-serve: scheduling continues on a latched WAL, but a
		// topology change the log cannot record would make the next restore
		// replay onto the wrong topology.
		return resp, fmt.Errorf("%w: %v", errWALDegraded, err)
	}

	// A platform without its own "shards" field inherits the server's
	// standing override (Config.Shards, or the last explicit reshard
	// override), exactly as the startup platform did: an operator
	// re-POSTing the daemon's own unchanged platform file to a `-shards N`
	// server must get a no-op, not a surprise repartition to connectivity
	// components. An explicit "shards" in the document always wins, and
	// becomes the new standing override once the reshard succeeds.
	shardCount := p.Shards
	if shardCount == 0 {
		shardCount = s.shardsCfg
	}
	groups, err := partitionFleet(p.Machines, shardCount)
	if err != nil {
		return resp, err
	}

	act := s.active()
	plan := &reshardPlan{
		shards:   p.Shards,
		fleet:    append([]model.Machine(nil), p.Machines...),
		groups:   groups,
		machines: make([][]model.Machine, len(groups)),
		keep:     make([]*shard, len(groups)),
		policies: make(map[int]sim.Policy),
	}
	for gi, group := range groups {
		ms := make([]model.Machine, len(group))
		for k, fi := range group {
			ms[k] = plan.fleet[fi].Clone()
		}
		plan.machines[gi] = ms
	}

	// Diff the new partition against the live shard set: first-fit matching
	// on identical ordered machine signatures. Matched shards are kept
	// as-is; unmatched running shards retire; unmatched groups spawn.
	used := make([]bool, len(act))
	spawnCount := 0
	for gi := range groups {
		sig := groupSignature(plan.machines[gi])
		for ai, sh := range act {
			if !used[ai] && groupSignature(sh.machines) == sig {
				used[ai], plan.keep[gi] = true, sh
				break
			}
		}
		if plan.keep[gi] == nil {
			spawnCount++
		}
	}
	for ai, sh := range act {
		if !used[ai] {
			plan.retiring = append(plan.retiring, sh)
		}
	}

	if spawnCount == 0 && len(plan.retiring) == 0 {
		// No-op: the new platform induces the partition already running.
		// Refresh the fleet numbering (the document may reorder machines)
		// and touch nothing else — no generation bump, no migration, so the
		// server stays trace-identical to one that never resharded.
		for gi, sh := range plan.keep {
			sh.mu.Lock()
			sh.machineIdx = append([]int(nil), groups[gi]...)
			sh.mu.Unlock()
		}
		if p.Shards > 0 {
			s.shardsCfg = p.Shards // under reshardMu, like every reader
		}
		s.topoMu.Lock()
		resp.Generation = len(s.gens) - 1
		s.topoMu.Unlock()
		s.renumberRetired(plan.fleet, act)
		resp.ShardCount = len(act)
		resp.Noop = true
		for _, sh := range act {
			resp.KeptShards = append(resp.KeptShards, sh.idx)
		}
		return resp, nil
	}

	// Structural reshard, timed end to end (topology publish, migration) for
	// the divflow_reshard_migration_seconds histogram.
	start := s.tel.now()

	// Construct every spawned shard's policy before mutating anything: a
	// constructor failure must leave the running topology untouched.
	for gi := range groups {
		if plan.keep[gi] == nil {
			if plan.policies[gi], err = NewPolicy(s.policyCfg); err != nil {
				return resp, err
			}
		}
	}
	gen2, spawned, err := s.publishGeneration(plan, act)
	if err != nil {
		return resp, err
	}
	resp.Generation = len(s.gens) - 1 // stable under reshardMu: we are its only writer
	resp.ShardCount = len(gen2)
	for gi, sh := range gen2 {
		if plan.keep[gi] != nil {
			resp.KeptShards = append(resp.KeptShards, sh.idx)
		} else {
			resp.SpawnedShards = append(resp.SpawnedShards, sh.idx)
		}
	}

	// Drain every retired shard, exactly as a steal would move the jobs: the
	// donor record flips to migrated (its executed pieces stay, translated by
	// the record), the destination gets a fresh record with the original
	// global ID, flow origin, and exact remaining fraction, and the
	// forwarding table points reads at the new owner.
	place := newPlacement(gen2)
	for _, donor := range plan.retiring {
		resp.MigratedJobs += s.migrate(donor, shardlink.ExtractArgs{All: true}, migrateReshard, place.pick)
		resp.RetiredShards = append(resp.RetiredShards, donor.idx)
	}
	resp.Warning = place.warning

	s.tel.event(obs.EventReshard, resp.Generation, -1, fmt.Sprintf(
		"%d shards (%d kept, %d spawned, %d retired), %d jobs migrated",
		len(gen2), len(resp.KeptShards), len(spawned), len(plan.retiring), resp.MigratedJobs))
	if !start.IsZero() {
		s.tel.reshardSeconds.Observe(s.tel.sinceSeconds(start))
	}

	s.renumberRetired(plan.fleet, gen2)

	// Retired shards' queues are empty and their live sets migrated; their
	// records keep serving reads of the pre-reshard history. Without a
	// retention policy nothing of that history will ever be released, so the
	// loop stops now; under retention the loop instead stays alive at one
	// wake-up per retention window, compacting the history down (and
	// releasing forwarding entries) until nothing is left, then exits on its
	// own — `-retention` keeps bounding memory across reshards. Spawned
	// loops start (or, on a not-yet-started server, wait for Start), and
	// every new-topology shard is poked: migrated jobs are pending on some
	// of them.
	for _, sh := range plan.retiring {
		if s.retention == nil {
			sh.close()
		} else {
			sh.poke()
		}
	}
	// Read started *after* the topology publish: a Start racing this reshard
	// may have snapshotted the shard list before the spawned shards were in
	// it, and a value read at entry would then leave their loops forever
	// unlaunched. After the publish the race is benign in both directions —
	// shard.start is idempotent.
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		for _, sh := range spawned {
			sh.start()
		}
	}
	for _, sh := range gen2 {
		sh.poke()
	}
	return resp, nil
}

// publishGeneration is the one step of a reshard that needs every active
// shard at once, and it moves no job: under all their mus (creation order —
// a snapshot's cut takes the same order) it verifies that every queued or
// live job of a retiring shard fits somewhere on the new topology, retires
// those shards, re-encodes the kept ones, builds the spawned ones, and
// publishes the new generation — all before the first mutex is released, so
// the first ID a re-encoded shard issues already decodes through the new
// generation, and a submission that was waiting on a retiring shard's mu
// re-routes against a topology that no longer contains it. An error leaves
// everything untouched.
//
//divflow:locks requires=reshard ascending=shard
func (s *Server) publishGeneration(plan *reshardPlan, act []*shard) (gen2, spawned []*shard, err error) {
	byIdx := append([]*shard(nil), act...)
	sort.Slice(byIdx, func(a, b int) bool { return byIdx[a].idx < byIdx[b].idx })
	for _, sh := range byIdx {
		sh.mu.Lock()
	}
	if err = plan.stranded(); err == nil {
		gen2, spawned = s.installLocked(plan, byIdx)
	}
	for i := len(byIdx) - 1; i >= 0; i-- {
		byIdx[i].mu.Unlock()
	}
	return gen2, spawned, err
}

// stranded reports the first queued or live job on a retiring shard that no
// machine of the new platform hosts. The caller holds every retiring shard's
// mu, and reshardMu keeps steals out, so nothing can join those shards
// between this check and their retirement.
//
//divflow:locks requires=shard
func (plan *reshardPlan) stranded() error {
	for _, donor := range plan.retiring {
		census := append([]*jobRecord(nil), donor.pending...)
		for _, id := range donor.eng.LiveIDs() {
			census = append(census, donor.records[id])
		}
		for _, rec := range census {
			if !hostsAny(plan.fleet, rec.Databanks) {
				return fmt.Errorf(
					"server: reshard rejected: job %d needs databanks %v, hosted by no machine of the new platform",
					rec.GID, rec.Databanks)
			}
		}
	}
	return nil
}

// installLocked mutates the topology. Callers hold reshardMu and the mu of
// every shard in active (sorted by creation index).
//
//divflow:locks requires=shard
func (s *Server) installLocked(plan *reshardPlan, active []*shard) (gen2, spawned []*shard) {
	// The new generation's ID base: strictly above every global ID any
	// current shard could have issued, so the newest-generation-whose-base-
	// fits decode rule stays unambiguous.
	base := 0
	for _, sh := range active {
		if b := sh.gidBase + len(sh.records)*sh.stride + sh.pos + 1; b > base {
			base = b
		}
	}
	stride := len(plan.groups)
	// s.gens and s.all are stable under reshardMu, so reading them without
	// topoMu is safe — we are their only writer. Creation indices continue
	// past every shard ever made.
	newGen, nextIdx := len(s.gens), len(s.all)
	topoRec := &recTopo{
		Gen:       newGen,
		Base:      base,
		Stride:    stride,
		Fleet:     plan.fleet,
		ShardsCfg: plan.shards,
		At:        s.clock.Now(),
	}
	for gi, group := range plan.groups {
		sh := plan.keep[gi]
		ts := walTopoShard{MachineIdx: append([]int(nil), group...), Kept: sh != nil}
		if sh != nil {
			// Re-encode in place: future IDs decode through the new generation.
			sh.gidBase, sh.stride, sh.pos = base, stride, gi
			sh.machineIdx = append([]int(nil), group...)
		} else {
			sh = s.wireShard(newShard(nextIdx, gi, stride, base, s.clock,
				plan.machines[gi], append([]int(nil), group...), plan.policies[gi], s.retention, s.admission))
			nextIdx++
			spawned = append(spawned, sh)
			ts.Machines = plan.machines[gi]
		}
		// Events and stats emitted from here on carry the new generation;
		// retiring shards keep the one their service ended in.
		sh.gen = newGen
		ts.Idx = sh.idx
		gen2 = append(gen2, sh)
		topoRec.Shards = append(topoRec.Shards, ts)
	}
	for _, sh := range plan.retiring {
		sh.retired = true
		topoRec.Retired = append(topoRec.Retired, sh.idx)
	}
	// The topology record lands in the WAL before any migration record that
	// references the new generation's shards, and before the publish: replay
	// rebuilds the generation first, then retraces the recorded exchanges. A
	// crash in between leaves jobs on retired donors, which restore drains
	// with the same placement rule (repairRetired).
	s.dur.append(walTypeTopo, topoRec)
	if plan.shards > 0 {
		s.shardsCfg = plan.shards // under reshardMu, like every reader
	}
	s.topoMu.Lock()
	s.gens = append(s.gens, &generation{base: base, stride: stride, shards: gen2})
	s.all = append(s.all, spawned...)
	s.reshards++
	s.topoMu.Unlock()
	return gen2, spawned
}

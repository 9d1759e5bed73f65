package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
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
//     cache and all;
//  3. retire every unmatched shard, spawn shards for the new groups and
//     advance the topology generation in one cut, so new global IDs decode
//     through the new shard count while old IDs keep resolving through the
//     generation that issued them;
//  4. drain each retired shard onto the new topology — exact remaining
//     fractions, original global IDs and flow origins — through the same
//     migration work stealing uses (Server.migrate), one section per donor.
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

// fleetIndex maps each machine name of a platform document to its index
// there: what shard.renumber matches by. New and Reshard refuse repeated
// names; a fleet restored from an older directory may still repeat one, and
// then the first index wins.
func fleetIndex(fleet []model.Machine) map[string]int {
	idx := make(map[string]int, len(fleet))
	for i := range fleet {
		if _, dup := idx[fleet[i].Name]; !dup {
			idx[fleet[i].Name] = i
		}
	}
	return idx
}

// newTopo starts the record of a generation over fleet partitioned into
// groups: every member spawned, on a clone of its machines, its creation
// index its position — a fleet's first generation, which Server.New installs
// as it stands; Reshard goes on to mark the members its diff keeps, number
// the rest past every shard ever created, and place the generation's IDs.
func newTopo(fleet []model.Machine, groups [][]int) *recTopo {
	r := &recTopo{Stride: len(groups), Fleet: append([]model.Machine(nil), fleet...)}
	for gi, group := range groups {
		ms := make([]model.Machine, len(group))
		for k, fi := range group {
			ms[k] = fleet[fi].Clone()
		}
		r.Shards = append(r.Shards, walTopoShard{Idx: gi, Machines: ms, MachineIdx: append([]int(nil), group...)})
	}
	return r
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
	if p == nil || len(p.Machines) == 0 {
		return resp, errors.New("server: reshard: no machines")
	}
	if err := checkMachines(p.Machines); err != nil {
		return resp, fmt.Errorf("server: reshard: %w", err)
	}
	if err := model.CheckMachineNames(p.Machines); err != nil {
		return resp, fmt.Errorf("server: reshard: %w", err)
	}
	// One topology change at a time; Close takes the same lock, so a closing
	// server cannot race a reshard spawning loops the shutdown would miss,
	// and every steal holds it shared, so no job moves except by this reshard.
	// s.shardsCfg is read and written under it too.
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	if s.closed.Load() {
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

	// Diff the new partition against the live shard set: first-fit matching
	// on identical ordered machine signatures. Matched shards are kept
	// as-is; unmatched running shards retire; unmatched groups spawn, at
	// creation indices past every shard ever made (s.all and s.gens are
	// stable under reshardMu: only a reshard writes them).
	act, all := s.active(), s.allShards()
	rec := newTopo(p.Machines, groups)
	rec.Gen, rec.ShardsCfg = s.Generation()+1, p.Shards
	keep := make(map[*shard][]int, len(groups)) // kept shard → its group
	nextIdx := len(all)
	for gi := range rec.Shards {
		ts := &rec.Shards[gi]
		sig := groupSignature(ts.Machines)
		for _, sh := range act {
			if keep[sh] == nil && groupSignature(sh.machines) == sig {
				keep[sh] = groups[gi]
				ts.Idx, ts.Kept, ts.Machines = sh.idx, true, nil
				break
			}
		}
		if !ts.Kept {
			ts.Idx = nextIdx
			nextIdx++
		}
	}
	var retiring []*shard
	for _, sh := range act {
		if keep[sh] == nil {
			retiring = append(retiring, sh)
			rec.Retired = append(rec.Retired, sh.idx)
		}
	}

	if nextIdx == len(all) && len(retiring) == 0 {
		// No-op: the new platform induces the partition already running.
		// Refresh the fleet numbering (the document may reorder machines)
		// and touch nothing else — no generation bump, no migration, so the
		// server stays trace-identical to one that never resharded. Each mu is
		// taken alone, so lock ordering is trivial.
		fleetIdx := fleetIndex(rec.Fleet)
		for _, sh := range all {
			sh.mu.Lock()
			if group, ok := keep[sh]; ok {
				sh.reencode(sh.gen, sh.gidBase, sh.stride, sh.pos, group)
			} else {
				sh.renumber(fleetIdx)
			}
			sh.mu.Unlock()
		}
		if p.Shards > 0 {
			s.shardsCfg = p.Shards // under reshardMu, like every reader
		}
		resp.Generation = s.Generation()
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

	gen2, spawned, err := s.publishGeneration(rec, retiring)
	if err != nil {
		return resp, err
	}
	resp.Generation = rec.Gen
	resp.ShardCount = len(gen2)
	for pos, sh := range gen2 {
		if rec.Shards[pos].Kept {
			resp.KeptShards = append(resp.KeptShards, sh.idx)
		} else {
			resp.SpawnedShards = append(resp.SpawnedShards, sh.idx)
		}
	}

	// Drain every retired shard, exactly as a steal would move the jobs: the
	// donor record flips to migrated (its executed pieces stay, translated by
	// the record), the destination gets a fresh record with the original
	// global ID, flow origin, and exact remaining fraction, and the
	// forwarding table points reads at the new owner. Each donor catches up
	// alone first, holding no new shard's mu.
	place := newPlacement(gen2)
	for _, donor := range retiring {
		if donor.catchUpRetired(donor.now()) {
			resp.MigratedJobs += s.migrate(donor, gen2, migrateReshard, place.pick)
		}
		resp.RetiredShards = append(resp.RetiredShards, donor.idx)
	}
	resp.Warning = place.warning

	s.tel.event(obs.EventReshard, resp.Generation, -1, fmt.Sprintf(
		"%d shards (%d kept, %d spawned, %d retired), %d jobs migrated",
		len(gen2), len(resp.KeptShards), len(spawned), len(retiring), resp.MigratedJobs))
	if !start.IsZero() {
		s.tel.reshardSeconds.Observe(s.tel.sinceSeconds(start))
	}

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
	for _, sh := range retiring {
		if s.retention.Sign() == 0 {
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
	if s.started.Load() {
		for _, sh := range spawned {
			sh.start()
		}
	}
	for _, sh := range gen2 {
		sh.poke()
	}
	return resp, nil
}

// publishGeneration is the one step of a reshard that needs every shard at
// once, and it moves no job: under the cut it verifies that every queued or
// live job of a retiring shard fits somewhere on the new topology, places the
// new generation's IDs above every ID issued so far and installs it through
// the topology transition — all before the first mutex is released, so the
// first ID a re-encoded shard issues already decodes through the new
// generation, and a submission that was waiting on a retiring shard's mu
// re-routes against a topology that no longer contains it. An error leaves
// everything untouched.
//
//divflow:locks requires=reshard
func (s *Server) publishGeneration(rec *recTopo, retiring []*shard) (gen2, spawned []*shard, err error) {
	//divflow:locks requires=reshard,shard
	s.cut(s.allShards(), func([]*shard) {
		if err = stranded(retiring, rec.Fleet); err != nil {
			return
		}
		rec.Base = s.nextBase()
		rec.At = exact.FromRat(s.clock.Now())
		if gen2, spawned, err = s.installGeneration(rec, nil); err != nil {
			err = fmt.Errorf("server: reshard: %w", err)
		}
	})
	return gen2, spawned, err
}

// nextBase is the ID base a new generation takes: strictly above every global
// ID an active shard could have issued, so the newest-generation-whose-base-
// fits decode rule stays unambiguous. publishGeneration places a generation
// there under the cut, and installGeneration holds every logged one to it.
func (s *Server) nextBase() int {
	base := 0
	for _, sh := range s.active() {
		if b := sh.gidBase + sh.records.next()*sh.stride + sh.pos + 1; b > base {
			base = b
		}
	}
	return base
}

// stranded reports the first queued or live job on a retiring shard that no
// machine of the new platform hosts. The caller holds every retiring shard's
// mu, and reshardMu keeps steals out, so nothing can join those shards
// between this check and their retirement.
//
//divflow:locks requires=shard
func stranded(retiring []*shard, fleet []model.Machine) error {
	for _, donor := range retiring {
		for _, v := range donor.census() {
			if rec := donor.records.get(v.ID); !hostsAny(fleet, rec.Databanks) {
				return fmt.Errorf(
					"server: reshard rejected: job %d needs databanks %v, hosted by no machine of the new platform",
					rec.GID, rec.Databanks)
			}
		}
	}
	return nil
}

// installGeneration is the topology transition: how a generation comes to
// exist, and the only writer of s.gens and s.all. Its input is the
// generation's record: Server.New builds the first in memory from the
// configured fleet, Reshard builds one from its diff, restore decodes the one
// Reshard logged, and a snapshot restore rewrites each generation of its
// document as one (states is then the document's shard entries by creation
// index, and a spawned member is restored from its own). Kept members —
// shards of the generation now newest — are re-encoded in place, spawned ones
// built at the next creation indices, retired ones marked, everyone else
// re-pointed at the record's fleet.
//
// Every member is resolved, checked and — if spawned — built before anything
// is touched: an error leaves the running topology as it was. The record is
// then appended before the first mutation, hence before any migration record
// naming the generation's shards: restore rebuilds the generation first, then
// retraces the migrations (a crash in between leaves jobs on retired donors,
// which restore drains: repairRetired). The first generation and a snapshot's
// are never logged: no log is attached to the server while they install.
//
// A live caller holds reshardMu and every shard's mu (publishGeneration's
// cut); startup and restore run before any loop, with no lock to hold — hence
// no requires= contract.
func (s *Server) installGeneration(r *recTopo, states []snapShard) (gen2, spawned []*shard, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("generation %d: %w", r.Gen, err)
		}
	}()
	if r.Stride != len(r.Shards) || r.Stride == 0 {
		// locate decodes every ID of the generation modulo its stride.
		return nil, nil, fmt.Errorf("stride %d over %d shards", r.Stride, len(r.Shards))
	}
	// locate takes an ID's generation to be the newest whose base does not
	// exceed it, and anything below every base to be unissued. A generation
	// must clear every ID the shards before it issued, as it did live; a
	// snapshot's is not held to this, its shards being loaded with records
	// issued under later generations too.
	if len(s.gens) == 0 && r.Base != 0 {
		return nil, nil, fmt.Errorf("first generation based at %d, want 0", r.Base)
	}
	if len(s.gens) > 0 && states == nil {
		if next := s.nextBase(); r.Base < next {
			return nil, nil, fmt.Errorf("based at %d, below %d, the next ID its predecessor would issue", r.Base, next)
		}
	}
	if len(s.gens) > 0 && r.Base <= s.gens[len(s.gens)-1].base {
		return nil, nil, fmt.Errorf("based at %d, not above generation %d's base %d", r.Base, len(s.gens)-1, s.gens[len(s.gens)-1].base)
	}
	if err := checkMachines(r.Fleet); err != nil {
		return nil, nil, fmt.Errorf("fleet: %w", err)
	}
	current := make(map[int]*shard)
	if len(s.gens) > 0 {
		for _, sh := range s.gens[len(s.gens)-1].shards {
			current[sh.idx] = sh
		}
	}
	member := make(map[*shard]bool, len(r.Shards))
	for pos, ts := range r.Shards {
		sh := current[ts.Idx]
		switch {
		case !ts.Kept && ts.Idx != len(s.all)+len(spawned):
			// Creation indices never repeat: every later record names the
			// shard by its own, and s.all is indexed by it.
			return nil, nil, fmt.Errorf("spawns shard %d, the next creation index is %d", ts.Idx, len(s.all)+len(spawned))
		case !ts.Kept:
			args := &shardlink.InstallArgs{
				ShardSpec: shardlink.ShardSpec{Idx: ts.Idx, Pos: pos, Stride: r.Stride, GidBase: r.Base, Gen: r.Gen, Machines: ts.Machines, MachineIdx: ts.MachineIdx},
				Policy:    s.policyCfg, Retention: s.retention, Admission: s.admission,
			}
			var state *snapShard
			if ts.Idx < len(states) {
				state = &states[ts.Idx]
			}
			if sh, err = buildShard(args, s.clock, s.dur, s.tel, state); err != nil {
				return nil, nil, err
			}
			s.wireShard(sh)
			spawned = append(spawned, sh)
		case sh == nil:
			// Retired shards never come back.
			return nil, nil, fmt.Errorf("keeps shard %d, which is not in generation %d", ts.Idx, len(s.gens)-1)
		case member[sh]:
			return nil, nil, fmt.Errorf("lists shard %d twice", ts.Idx)
		case len(ts.MachineIdx) != len(sh.machines):
			return nil, nil, fmt.Errorf("kept shard %d maps %d machines through %d fleet indices", ts.Idx, len(sh.machines), len(ts.MachineIdx))
		}
		member[sh] = true
		gen2 = append(gen2, sh)
	}
	for _, idx := range r.Retired {
		if sh := current[idx]; sh == nil || member[sh] {
			return nil, nil, fmt.Errorf("retires shard %d, which the generation before it does not leave behind", idx)
		}
	}
	s.dur.append(walTypeTopo, r)
	for pos, sh := range gen2 {
		if ts := r.Shards[pos]; ts.Kept {
			sh.reencode(r.Gen, r.Base, r.Stride, pos, ts.MachineIdx)
		}
	}
	for _, idx := range r.Retired {
		// A retiring shard keeps the generation its service ended in.
		current[idx].retired = true
	}
	fleetIdx := fleetIndex(r.Fleet)
	for _, sh := range s.all {
		if !member[sh] {
			sh.renumber(fleetIdx)
		}
	}
	if r.ShardsCfg > 0 {
		s.shardsCfg = r.ShardsCfg // under reshardMu, like every reader
	}
	s.topoMu.Lock()
	s.gens = append(s.gens, &generation{base: r.Base, stride: r.Stride, shards: gen2})
	s.all = append(s.all, spawned...)
	s.topoMu.Unlock()
	return gen2, spawned, nil
}

// partitionFleet splits the fleet into shard groups of global machine
// indices. n > 0 deals machines round-robin into n groups; n == 0 groups by
// databank-connectivity components (union-find over "shares a databank"),
// ordered by smallest member index. Every group preserves fleet order.
//
// The round-robin override is validated: a databank whose hosts land in
// several shards with only *partial* coverage of one of them is a
// configuration error, because a job restricted to it would be pinned to a
// shard where some machines cannot serve it while full hosts idle in other
// shards — silently squandering both the divisible-load flexibility and the
// work-stealing escape hatch. Databanks hosted by every machine of each
// shard they touch (the uniform-fleet shape round-robin sharding exists
// for) stay legal: a restricted job can then use the whole of whichever
// shard it routes to, and any shard can steal it.
func partitionFleet(machines []model.Machine, n int) ([][]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("server: shards = %d, want >= 0", n)
	}
	if n > len(machines) {
		return nil, fmt.Errorf("server: %d shards over %d machines (at most one shard per machine)", n, len(machines))
	}
	if n > 0 {
		groups := make([][]int, n)
		for i := range machines {
			groups[i%n] = append(groups[i%n], i)
		}
		if err := checkNoDatabankSplit(machines, n); err != nil {
			return nil, err
		}
		return groups, nil
	}
	// Union-find over machines; two machines join when they share a databank.
	// Machines hosting no databanks at all can only serve unrestricted jobs
	// (which may run anywhere), so they pool into one shared group instead of
	// shattering into singleton shards: a fully databank-less fleet stays a
	// single loop, exactly the pre-shard behavior.
	parent := make([]int, len(machines))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	byBank := make(map[string]int)
	bare := -1
	for i := range machines {
		if len(machines[i].Databanks) == 0 {
			if bare >= 0 {
				union(i, bare)
			} else {
				bare = i
			}
			continue
		}
		for _, d := range machines[i].Databanks {
			if first, ok := byBank[d]; ok {
				union(i, first)
			} else {
				byBank[d] = i
			}
		}
	}
	// Components in order of their smallest member, members in fleet order.
	index := make(map[int]int)
	var groups [][]int
	for i := range machines {
		root := find(i)
		g, ok := index[root]
		if !ok {
			g = len(groups)
			index[root] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups, nil
}

// checkNoDatabankSplit rejects a round-robin sharding (machine i → shard
// i%n) that scatters a databank's hosts over several shards while leaving
// some touched shard only partially able to serve it.
func checkNoDatabankSplit(machines []model.Machine, n int) error {
	type spread struct {
		shards map[int]bool // shards holding at least one host
		hosts  map[int]bool // machines hosting the databank
	}
	banks := make(map[string]*spread)
	order := []string{} // deterministic error choice: first databank seen
	for i := range machines {
		for _, d := range machines[i].Databanks {
			sp := banks[d]
			if sp == nil {
				sp = &spread{shards: make(map[int]bool), hosts: make(map[int]bool)}
				banks[d] = sp
				order = append(order, d)
			}
			sp.shards[i%n] = true
			sp.hosts[i] = true
		}
	}
	for _, d := range order {
		sp := banks[d]
		if len(sp.shards) < 2 {
			continue // all hosts in one shard: restricted jobs keep every host
		}
		for i := range machines {
			if sp.shards[i%n] && !sp.hosts[i] {
				return fmt.Errorf(
					"server: %d shards split databank %q across shards with partial coverage (machine %d (%s) in a shard serving it cannot host it); use the databank-connectivity partition (shards=0) or regroup the fleet",
					n, d, i, machines[i].Name)
			}
		}
	}
	return nil
}

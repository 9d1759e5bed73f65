package server

import (
	"fmt"
	"maps"
	"runtime/debug"
	"sync/atomic"
	"time"

	"divflow/internal/exact"
	"divflow/internal/faults"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/schedule"
	"divflow/internal/shardlink"
	"divflow/internal/sim"
	"divflow/internal/stats"
)

// jobRecord is the shard-side state of one submitted job, and its one written
// form: a snapshot stores the record as it stands (the JSON names are the
// snapshot's) and a restore takes it back whole. IDs are shard-local (dense,
// in the shard's recordIndex); the wire-visible global ID encodes the *birth*
// shard and survives migration — a job stolen by another shard keeps its
// global ID, with the server's forwarding table pointing reads at the shard
// that now owns it.
type jobRecord struct {
	ID    int    `json:"id"`  // shard-local ID
	GID   int    `json:"gid"` // wire-visible global ID (birth-shard encoding)
	State string `json:"state"`
	// Completed is the completion time; zero until done.
	Completed exact.Q `json:"completed,omitzero"`
	// Remaining, when not zero, is the unprocessed fraction the job arrived
	// with (a stolen job admitted mid-execution); zero means a whole job.
	Remaining exact.Q `json:"remaining,omitzero"`
	// Stolen marks records created by a migration rather than a submission,
	// so accepted-job counts and merged validations see each job once.
	Stolen bool `json:"stolen,omitempty"`
	// Counted marks that the job's admission has been folded into some
	// shard's arrival-batch statistics; it migrates with the job, so every
	// submission is counted exactly once no matter where (or how often
	// re-)admitted.
	Counted bool `json:"counted,omitempty"`
	// MigratedAt, on a donor-side record, is the engine time the job was
	// extracted for a migration: every donor piece of the job ends at or
	// before it, so once the retention horizon passes it the record can be
	// compacted. Set while the state is not yet StateMigrated, it marks the
	// record reserved — out of the engine and the queue, awaiting the
	// migration's commit or abort (which clears it). It is the record's one
	// optional rational: an extraction at time zero is still a reservation.
	MigratedAt *exact.Q `json:"migratedAt,omitempty"`
	// Job is the job as submitted; Release is the submission time, the job's
	// flow origin. Deadline, Tenant and SLAClass ride migrations, the WAL and
	// the snapshot with it.
	shardlink.Job
	// hosts[i] reports whether local machine i hosts every databank of the
	// job — the paper's finite c_{i,j} — fixed where the record is created
	// (databank check done once, not on every cost lookup).
	hosts []bool
	// submittedWall is the shell's wall-clock submission stamp, for the
	// submit→admit latency; zero with telemetry disabled (the clock is never
	// read then), on migrated records (a re-admission on the destination
	// shard is not a fresh submission) and after a restore.
	submittedWall time.Time
}

// clone returns the record's durable part: a snapshot is marshaled after the
// shard's mu is released. The rationals are values and nothing writes to the
// databank list, so the copy shares nothing that changes.
func (r *jobRecord) clone() *jobRecord {
	c := *r
	c.submittedWall = time.Time{}
	return &c
}

// recordIndex is a shard's job records by local ID, holding only the retained
// ones: the IDs below base were compacted, and recs[i] is local ID base+i —
// nil where compaction freed a record later than the first retained one, so
// recs is empty or starts with a record. Compaction trims the freed prefix,
// so the index costs O(retained) however many jobs the shard has held.
type recordIndex struct {
	base int
	recs []*jobRecord
}

// next is the local ID the next record takes: how many the shard ever held.
func (x *recordIndex) next() int { return x.base + len(x.recs) }

// get returns the record with the given local ID, nil when the ID was never
// issued or its record compacted.
func (x *recordIndex) get(id int) *jobRecord {
	if id < x.base || id >= x.next() {
		return nil
	}
	return x.recs[id-x.base]
}

// add appends a record, which takes ID next(); a compacted one (nil) ahead of
// every retained record only moves the base.
func (x *recordIndex) add(rec *jobRecord) {
	if rec == nil && len(x.recs) == 0 {
		x.base++
		return
	}
	x.recs = append(x.recs, rec)
}

// drop compacts a held record and trims the freed prefix.
func (x *recordIndex) drop(id int) {
	x.recs[id-x.base] = nil
	n := 0
	for n < len(x.recs) && x.recs[n] == nil {
		n++
	}
	x.base += n
	if x.recs = x.recs[n:]; len(x.recs) == 0 {
		x.recs = nil // release the array: a drained index holds nothing
	}
}

// shardCore is one shard's state and every transition of it: the spec it was
// built from, its records and pending queue, its own sim.Engine and policy
// instance (for OnlineMWF variants, its own plan cache), its ledger, its
// routing key and its latched error. It holds no lock, clock, loop or link: a
// core is stepped from one goroutine at a time — by its shard (the shell that
// embeds it) under the shard's mu, which the requires=shard contracts below
// name, or on its own, with no server (TestCoreRunsWithoutServer). Its only
// outbound edge is the durability appender (nil: nothing is logged); the
// shell reports its effects. Every transition goes through run.
type shardCore struct {
	// idx is the shard's immutable creation index, unique across the whole
	// life of the server: it names the shard in stats, records and errors,
	// and orders the shard mus Server.cut takes.
	idx int

	machines []model.Machine // this shard's machines, in fleet order
	inverse  []exact.Q       // the machines' InverseSpeed, for the cost function
	policy   sim.Policy
	mwf      *sim.OnlineMWF // non-nil when policy is an OnlineMWF variant
	// admission is the deadline-admission mode (shardlink.AdmissionStrict,
	// Advisory, or Off) a submission's deadline is checked under.
	admission string

	eng     *sim.Engine
	records recordIndex
	pending []*jobRecord // accepted but not yet admitted
	// Global-ID encoding of this shard within the *current* generation:
	// gid = gidBase + local*stride + pos (stride: the generation's shard
	// count, pos: the shard's position in it). Records keep their stored gids
	// across the re-encoding of a reshard that keeps the shard (reencode).
	gidBase int
	stride  int
	pos     int
	// machineIdx maps local machine indices to global fleet indices.
	machineIdx []int
	// gen is the newest topology generation the shard belongs (or belonged)
	// to; events and stats are tagged with it.
	gen int
	// effects lists, in order, what the steps since the shell's last drain
	// did: transitions, the barrier, fail and the policy's observer append.
	effects []effect
	// retired marks a shard dropped from the active topology by a reshard:
	// its jobs have been migrated away, and it only serves reads of its
	// history. The router and the steal protocol never place work on it.
	retired bool
	// route is the routing key as last published: the exact residual work
	// (accepted job sizes minus completed ones; a partially processed job
	// counts whole, and so does one whose admit the engine rejected — the
	// shard is poisoned then, and steering new work elsewhere is right), its
	// per-tenant split (untracked traffic absent, zero entries pruned, nil
	// when empty) for the quota check, and lastErr's text. The core stores a
	// fresh value; a published value and its map are never written again, so
	// routing reads it without waiting behind a solve.
	route atomic.Pointer[shardlink.RouteInfoReply]
	// wal, when non-nil, is the server's durability layer: every transition
	// appends its record to the write-ahead log before it mutates the core.
	wal *durability

	// The shard's ledger: ShardTotals here, the per-tenant accounting in
	// tenants below. ledger() is its one reader.
	shardlink.ShardTotals
	lastErr error
	// migratedIDs lists donor-side records awaiting retention compaction
	// (Engine.Compact cannot return them: the engine no longer knows them).
	migratedIDs []int
	// tenants accumulates per-tenant statistics like the totals' completed-
	// job aggregates (at submission and completion time, so compaction loses
	// nothing). Never nil. An entry's Backlog stays empty here: the live value
	// is the route's split.
	tenants   shardlink.TenantLedger
	retention exact.Q // zero: keep everything
}

// build makes c the core args describes: the one place a shard comes into
// being, and so the one place a spec is checked, whether derived from a
// platform document or read back from a log or snapshot. dur is the server's
// durability layer, nil for none; a non-nil state is the shard's snapshot
// entry, loaded once the core stands.
func (c *shardCore) build(args *shardlink.InstallArgs, dur *durability, state *snapShard) error {
	spec := args.ShardSpec
	switch {
	case spec.Stride < 1 || spec.Pos < 0 || spec.Pos >= spec.Stride:
		// locate decodes every ID of a generation modulo its stride.
		return fmt.Errorf("shard %d at position %d of %d", spec.Idx, spec.Pos, spec.Stride)
	case len(spec.MachineIdx) != len(spec.Machines):
		// The executed trace is translated through machineIdx on every read.
		return fmt.Errorf("shard %d maps %d machines through %d fleet indices", spec.Idx, len(spec.Machines), len(spec.MachineIdx))
	}
	if err := checkMachines(spec.Machines); err != nil {
		return fmt.Errorf("shard %d: %w", spec.Idx, err)
	}
	admission, err := normalizeAdmission(args.Admission)
	if err != nil {
		return err
	}
	pol, err := NewPolicy(args.Policy)
	if err != nil {
		return err
	}
	c.idx, c.pos, c.stride, c.gidBase, c.gen = spec.Idx, spec.Pos, spec.Stride, spec.GidBase, spec.Gen
	c.machines, c.machineIdx, c.admission, c.wal = spec.Machines, spec.MachineIdx, admission, dur
	c.tenants = make(shardlink.TenantLedger)
	c.route.Store(&shardlink.RouteInfoReply{})
	if args.Retention.Sign() > 0 {
		c.retention, c.LastCompact = args.Retention, new(exact.Q)
	}
	for i := range c.machines {
		c.inverse = append(c.inverse, exact.FromRat(c.machines[i].InverseSpeed))
	}
	c.policy, c.eng = pol, sim.NewEngine(len(c.machines), c.cost, pol)
	if c.mwf, _ = pol.(*sim.OnlineMWF); c.mwf != nil {
		c.mwf.Observer = c
	}
	if state != nil {
		return c.loadState(state)
	}
	return nil
}

// tenantFor returns (creating on first use) the tenant's ledger entry.
//
//divflow:locks requires=shard
func (c *shardCore) tenantFor(tenant string) *shardlink.TenantTotals {
	ta := c.tenants[tenant]
	if ta == nil {
		ta = &shardlink.TenantTotals{FlowSum: new(exact.Q)}
		c.tenants[tenant] = ta
	}
	return ta
}

// reencode moves a kept shard into a generation: IDs it issues from here on
// decode through it, and its machines answer to the new platform document's
// indices (a no-op reshard changes only those).
func (c *shardCore) reencode(gen, base, stride, pos int, machineIdx []int) {
	c.gen, c.gidBase, c.stride, c.pos = gen, base, stride, pos
	c.machineIdx = append([]int(nil), machineIdx...)
}

// renumber re-points the machines of a shard outside the active topology at a
// new platform document, by name: the merged /v1/schedule interprets every
// piece against the current platform, and without the remap a retired shard's
// history would keep indices into a document that no longer exists — one
// response mixing two numbering schemes. A machine absent from the new
// platform keeps its historical index (there is no right answer for a machine
// that left).
func (c *shardCore) renumber(fleetIdx map[string]int) {
	for i := range c.machineIdx {
		if ni, ok := fleetIdx[c.machines[i].Name]; ok {
			c.machineIdx[i] = ni
		}
	}
}

// globalID encodes a shard-local job ID into the wire-visible global ID
// under the shard's current-generation encoding. With a single never-
// resharded shard the encoding is the identity.
//
//divflow:locks requires=shard
func (c *shardCore) globalID(local int) int { return c.gidBase + local*c.stride + c.pos }

// hosts reports whether some machine of the shard hosts every databank.
func (c *shardCore) hosts(databanks []string) bool { return hostsAny(c.machines, databanks) }

// hostMask is a new record's hosts: which of the shard's machines host every
// databank the job names.
func (c *shardCore) hostMask(databanks []string) []bool {
	mask := make([]bool, len(c.machines))
	for i := range c.machines {
		mask[i] = c.machines[i].Hosts(databanks)
	}
	return mask
}

// cost is the shard engine's CostFunc: the uniform model over the shard's
// machines, c_{i,j} = Size_j · InverseSpeed_i where machine i hosts job j's
// databanks, multiplied on exact.Q's words. Compaction forgets records, so a
// stale or out-of-range ID must answer ok=false, not dereference a nil record
// and kill the loop goroutine.
func (c *shardCore) cost(machine, jobID int) (exact.Q, bool) {
	rec := c.records.get(jobID)
	if rec == nil {
		return exact.Q{}, false
	}
	if machine < 0 || machine >= len(rec.hosts) || !rec.hosts[machine] {
		return exact.Q{}, false
	}
	return rec.Size.Mul(c.inverse[machine]), true
}

// admissionCheck answers a deadline admission for one candidate job,
// submitted at its release, against the shard's residual workload — the
// census, at its exact remaining work, released with it, with every stored
// deadline kept. The plan the shard follows answers first (planAdmits): a
// schedule meeting every deadline is itself the proof that System (2) is
// feasible. Otherwise the deadline-feasibility LP decides, and names the best
// achievable counter-offer deadline when the requested one is infeasible.
// Both answers write the same certificate. A shard whose catch-up fails checks
// nothing, so it certifies nothing: strict refuses, advisory admits uncertified.
// The job passed CheckSubmission.
//
//divflow:locks requires=shard
func (c *shardCore) admissionCheck(job shardlink.Job) (*model.AdmissionCertificate, error) {
	// Catch the engine up to the release, the one instant both the census and
	// the free machines are measured at. This is the catch-up the loop would
	// run at its next wake-up, so no-deadline traffic (which never reaches
	// this function) keeps its trace bit-for-bit.
	now, ok := c.catchUpTo(job.Release)
	if !ok {
		if c.admission == shardlink.AdmissionStrict {
			return nil, errAdmissionStalled
		}
		return nil, nil
	}
	cert := &model.AdmissionCertificate{Mode: c.admission, Deadline: job.Deadline.String()}
	if live := c.eng.Snapshot(); c.planAdmits(live, job) == planAnswers {
		// The LP's instance would be the live jobs and the candidate.
		cert.ResidualJobs, cert.Feasible = len(live.Jobs)+1, true
		return cert, nil
	}
	// The candidate takes the local ID it would be given, and the last index.
	cand := sim.JobState{ID: c.records.next(), Release: job.Release, Remaining: exact.Int(1), Weight: job.Weight, Size: job.Size}
	cost := func(i, id int) (exact.Q, bool) {
		if id != cand.ID {
			return c.cost(i, id)
		}
		if !c.machines[i].Hosts(job.Databanks) {
			return exact.Q{}, false
		}
		return job.Size.Mul(c.inverse[i]), true
	}
	snap := &sim.Snapshot{Now: now, Jobs: append(c.census(), cand), M: len(c.machines), Cost: cost}
	res, err := snap.Residual()
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: admission instance: %w", c.idx, err)
	}
	k := len(snap.Jobs) - 1
	held := make([]*exact.Q, len(snap.Jobs))
	for j := range snap.Jobs[:k] {
		if rec := c.records.get(snap.Jobs[j].ID); rec.Deadline.Sign() != 0 {
			held[j] = &rec.Deadline
		}
	}
	candDeadline := job.Deadline
	held[k] = &candDeadline
	mode := schedule.Divisible
	if c.mwf != nil {
		mode = c.mwf.Mode
	}
	cert.ResidualJobs = len(snap.Jobs)
	feasible, err := res.DeadlineFeasible(held, mode)
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: deadline feasibility: %w", c.idx, err)
	}
	cert.Feasible = feasible
	if feasible {
		return cert, nil
	}
	counter, ok, err := res.BestDeadline(held, k, mode)
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: counter-offer search: %w", c.idx, err)
	}
	if ok {
		cert.CounterOffer = counter.String()
	}
	return cert, nil
}

// planVerdict is how the plan the shard follows answered an admission.
type planVerdict int

const (
	// planAnswers: the plan, with the candidate in its idle time, meets
	// every deadline — the admission is feasible.
	planAnswers planVerdict = iota
	// planUnavailable: no plan to read — another policy or execution model,
	// queued jobs the plan does not cover, or a plan that no longer predicts
	// the engine.
	planUnavailable
	// planMissesHeld: the plan finishes a job after its held deadline.
	planMissesHeld
	// planNoRoom: the candidate does not fit in the plan's idle time on its
	// machines before its deadline.
	planNoRoom
)

// planAdmits tries to exhibit a schedule that meets every deadline with the
// candidate admitted, without the LP. Under a lazy divisible OnlineMWF with
// nothing queued, the plan's pieces from now on process exactly every live
// job's remaining fraction (sim.OnlineMWF.PlanAhead); if each job with a
// deadline finishes there by it, and the candidate's machines have enough idle
// time between now and its deadline to process it (divisible: on several
// machines at once), that plan plus the candidate in the idle time is the
// schedule. Any other answer leaves the decision to the LP. live is the
// caught-up engine's snapshot.
//
//divflow:locks requires=shard
func (c *shardCore) planAdmits(live *sim.Snapshot, job shardlink.Job) planVerdict {
	if c.mwf == nil || c.mwf.Mode != schedule.Divisible || len(c.pending) != 0 {
		return planUnavailable
	}
	ahead, ok := c.mwf.PlanAhead(live)
	if !ok {
		return planUnavailable
	}
	busy := make([]exact.Q, len(c.machines)) // plan time inside [now, deadline]
	for _, piece := range ahead {
		if rec := c.records.get(piece.Job); rec != nil && rec.Deadline.Sign() != 0 && piece.End.Cmp(rec.Deadline) > 0 {
			return planMissesHeld
		}
		end := piece.End
		if end.Cmp(job.Deadline) > 0 {
			end = job.Deadline
		}
		if piece.Start.Cmp(end) < 0 {
			busy[piece.Machine] = busy[piece.Machine].Add(end.Sub(piece.Start))
		}
	}
	window := job.Deadline.Sub(live.Now) // negative past the deadline: no room
	var done exact.Q                     // fraction of the candidate the idle time processes
	for i := range c.machines {
		if c.machines[i].Hosts(job.Databanks) {
			done = done.Add(window.Sub(busy[i]).Quo(job.Size.Mul(c.inverse[i])))
		}
	}
	if done.Cmp(exact.Int(1)) < 0 {
		return planNoRoom
	}
	return planAnswers
}

// census lists every outstanding job of the shard once, as a policy sees a
// job: the pending queue in order — each view at its flow origin, with the
// fraction it arrived with — then the engine's live jobs in snapshot order.
// The admission LP, the steal census, the reshard drain and its stranded-job
// check read this one list; a view's record is c.records.get(v.ID). Reserved
// records (extracted, awaiting commit) are in neither part. The engine is
// caught up when remaining fractions matter.
//
//divflow:locks requires=shard
func (c *shardCore) census() []sim.JobState {
	live := c.eng.Snapshot().Jobs
	views := make([]sim.JobState, 0, len(c.pending)+len(live))
	for _, rec := range c.pending {
		rem := rec.Remaining
		if rem.Sign() == 0 {
			rem = exact.Int(1)
		}
		views = append(views, sim.JobState{ID: rec.ID, Release: rec.Release, Weight: rec.Weight, Size: rec.Size, Remaining: rem})
	}
	return append(views, live...)
}

// adoptRecord creates the destination-side record of a migrated job: a fresh
// local slot under the original global ID, flow origin, and exact remaining
// fraction, queued for admission at the shard's next wake-up (not a birth:
// no tenant or arrival counter moves, and the backlog shifts per batch). counted
// migrates with the job, so arrival statistics see each submission exactly
// once no matter how often it moves.
//
//divflow:locks requires=shard
func (c *shardCore) adoptRecord(mj *shardlink.MigratedJob) *jobRecord {
	nrec := &jobRecord{
		ID: c.records.next(), GID: mj.GID, State: StateQueued,
		Job:       mj.Job, // Release included: the flow origin is still the first submission
		Remaining: mj.Remaining, Stolen: true, Counted: mj.Counted,
		hosts: c.hostMask(mj.Databanks),
	}
	c.records.add(nrec)
	c.pending = append(c.pending, nrec)
	return nrec
}

// shiftBacklog moves the records' sizes into (or out of) the backlog and its
// per-tenant split (untracked traffic is not split, zero entries are pruned)
// and publishes the result in one store: a birth, the destination's half of a
// migration on admit, the donor's on commit, and the shutdown drain.
//
//divflow:locks requires=shard
func (c *shardCore) shiftBacklog(in bool, recs ...*jobRecord) {
	r := *c.route.Load()
	cloned := false
	for _, rec := range recs {
		size := rec.Size
		if !in {
			size = size.Neg()
		}
		r.Backlog = r.Backlog.Add(size)
		cur, ok := r.TenantBacklog[rec.Tenant]
		if rec.Tenant == "" || (!ok && !in) {
			continue
		}
		if !cloned { // a writable copy: the published map stays as read
			r.TenantBacklog, cloned = make(map[string]exact.Q, len(r.TenantBacklog)+1), true
			maps.Copy(r.TenantBacklog, c.route.Load().TenantBacklog)
		}
		if cur = cur.Add(size); cur.Sign() == 0 {
			delete(r.TenantBacklog, rec.Tenant)
		} else {
			r.TenantBacklog[rec.Tenant] = cur
		}
	}
	if len(r.TenantBacklog) == 0 {
		r.TenantBacklog = nil
	}
	c.route.Store(&r)
}

// historyEmpty reports whether every record has been compacted away and
// nothing is pending — a retired shard with no history left has nothing to
// serve and its loop can stop for good.
//
//divflow:locks requires=shard
func (c *shardCore) historyEmpty() bool { return len(c.pending) == 0 && len(c.records.recs) == 0 }

// barrier is the shard's panic barrier, deferred by its caller: a caught
// panic latches the shard — it reports stalled, with the panic as its error,
// counted and journaled with its stack, the daemon still serving — and the
// caller returns its results as they stand.
//
//divflow:locks requires=shard
func (c *shardCore) barrier() {
	r := recover()
	if r == nil {
		return
	}
	stack := debug.Stack()
	stack = stack[:min(len(stack), 4096)]
	c.Panics++
	c.fail(fmt.Errorf("server: shard %d: panic: %v", c.idx, r))
	now := c.eng.Now()
	c.note(obs.EventShardPanic, -1, &now, "%v\n%s", r, stack)
}

// catchUpTo advances the engine through every completion/review event due by
// now and then to now, executing the installed allocation — without admitting
// pending submissions: they have no executed work to conserve, and a steal's
// census must not force a full-size solve the steal is about to shrink. The
// loop and a steal's donor catch up to the clock, run to a record's time,
// admission to the candidate's release. It returns the time reached and
// whether the shard is still healthy.
//
//divflow:locks requires=shard
func (c *shardCore) catchUpTo(now exact.Q) (exact.Q, bool) {
	if now.Cmp(c.eng.Now()) < 0 {
		// A timer fired marginally early (wall-clock rounding): treat the
		// engine's exact time as authoritative.
		now = c.eng.Now()
	}
	for {
		next, ok := c.eng.NextEvent()
		if !ok || next.Cmp(now) > 0 {
			break
		}
		if !c.step(next) {
			return now, false
		}
	}
	// Partial progress up to the present, crossing no event.
	if _, err := c.eng.AdvanceTo(now); err != nil {
		c.fail(err)
		return now, false
	}
	return now, true
}

// admitAll admits every pending submission as one batch at time now, through
// the admit transition. The engine is caught up to now.
//
//divflow:locks requires=shard
func (c *shardCore) admitAll(now exact.Q) {
	if len(c.pending) == 0 {
		return
	}
	r := &recAdmit{Shard: c.idx, At: now, Locals: make([]int, len(c.pending))}
	for i, rec := range c.pending {
		r.Locals[i] = rec.ID
	}
	if err := c.run(r); err != nil {
		c.fail(err)
	}
}

// step advances the engine to the event at t, runs the complete transition
// for every job done there, and re-runs the policy.
//
//divflow:locks requires=shard
func (c *shardCore) step(t exact.Q) bool {
	done, err := c.eng.AdvanceTo(t)
	if err != nil {
		c.fail(err)
		return false
	}
	for _, id := range done {
		if err := c.run(&recComplete{Shard: c.idx, Local: id, GID: c.records.get(id).GID, At: t}); err != nil {
			c.fail(err)
			return false
		}
	}
	return c.decide()
}

// compact enforces the retention bound through the compact transition, at
// the horizon retention behind now, once it passes the last one. It returns
// the global IDs of the compacted stolen records, whose forwarding-table
// entries the caller releases, so a retention-bounded service stays bounded
// under steady stealing.
//
//divflow:locks requires=shard
func (c *shardCore) compact(now exact.Q) []int {
	if c.retention.Sign() == 0 {
		return nil
	}
	horizon := now.Sub(c.retention)
	if horizon.Sign() <= 0 || horizon.Cmp(*c.LastCompact) <= 0 {
		return nil
	}
	r := &recCompact{Shard: c.idx, Now: now, Horizon: horizon}
	if err := c.run(r); err != nil {
		c.fail(err)
	}
	return r.released
}

// noteMakespan raises the makespan high-water mark to the current executed
// trace's makespan.
//
//divflow:locks requires=shard
func (c *shardCore) noteMakespan() {
	if ms := c.eng.Makespan(); c.MakespanHW == nil || ms.Cmp(*c.MakespanHW) > 0 {
		c.MakespanHW = &ms
	}
}

// makespan returns the whole-execution makespan: the maximum of the retained
// trace's makespan and the high-water mark from before compactions.
//
//divflow:locks requires=shard
func (c *shardCore) makespan() exact.Q {
	ms := c.eng.Makespan()
	if c.MakespanHW != nil && c.MakespanHW.Cmp(ms) > 0 {
		ms = *c.MakespanHW
	}
	return ms
}

// decide runs the policy and flags a stall (live work but no upcoming
// event: the policy idled, or its inner solver failed). A policy panic stops
// at its barrier, wherever the decision runs — in the loop or in a catch-up
// outside it — and reports ok false, its zero value, like a failed decision.
//
//divflow:locks requires=shard
func (c *shardCore) decide() (ok bool) {
	defer c.barrier()
	// The core's one fault seam: the fault-injection harness plants a panic
	// here, exactly where a policy bug would blow up, to exercise the
	// barrier's recover/latch path.
	faults.MaybePanic(faults.PanicInPolicy)
	if err := c.eng.Decide(); err != nil {
		c.fail(err)
		return false
	}
	// Once fail() recorded an engine error it stays latched: later decisions
	// on a poisoned engine must not report the service healthy.
	if _, pending := c.eng.NextEvent(); c.lastErr == nil && c.eng.Live() > 0 && !pending {
		err := fmt.Errorf("server: shard %d: policy %s idles with %d live jobs", c.idx, c.policy.Name(), c.eng.Live())
		if c.mwf != nil && c.mwf.Err() != nil {
			err = c.mwf.Err()
		}
		c.fail(err)
	}
	return true
}

// fail latches a loop error — the first one stays — and publishes its text
// in the routing key, where the router sees it without taking mu; the shard
// keeps serving reads.
//
//divflow:locks requires=shard
func (c *shardCore) fail(err error) {
	if c.lastErr == nil {
		c.lastErr = err
		now := c.eng.Now()
		c.note(obs.EventShardStall, -1, &now, "%v", err)
	}
	r := *c.route.Load()
	r.Err = c.lastErr.Error()
	c.route.Store(&r)
}

// ledger copies the shard's ledger out of the core: the one reader the
// snapshot and the stats reply — and through them every fleet read — share.
// The copy is complete: the routing-side backlog split is filled in, so a
// tenant that only ever had migrated work here (a backlog, no entry) appears.
//
//divflow:locks requires=shard
func (c *shardCore) ledger() (shardlink.ShardTotals, shardlink.TenantLedger) {
	totals, tenants := c.ShardTotals.Clone(), c.tenants.Clone()
	for t, b := range c.route.Load().TenantBacklog {
		tenants.Merge(shardlink.TenantLedger{t: {Backlog: b}})
	}
	return totals, tenants
}

// observeFlow records v in the ledger histogram *h, laid out at its first
// sample: nil is how the ledger says nothing completed.
func observeFlow(h **obs.HistogramSnapshot, v float64) {
	if *h == nil {
		*h = &obs.HistogramSnapshot{Buckets: obs.DefFlowBuckets, Counts: make([]uint64, len(obs.DefFlowBuckets)+1)}
	}
	(*h).Observe(v)
}

// effect is one journal event a step made, kept as values until the shell
// formats it: the detail is format applied to args (a solve's: its path).
type effect struct {
	typ      string
	gid, gen int // gid -1: not job-scoped; gen: the core's at the step
	at       exact.Q
	timed    bool // at is the exact virtual time the event describes
	format   string
	args     []any
	wall     time.Duration // a solve's wall time, for divflow_solve_seconds
}

// event is the journal event e reports on shard idx.
func (e *effect) event(idx int) obs.Event {
	ev := obs.Event{Type: e.typ, Shard: idx, Gen: e.gen, GID: e.gid}
	if e.timed {
		ev.VTime = e.at.String()
	}
	if e.format != "" {
		ev.Detail = fmt.Sprintf(e.format, e.args...)
	}
	return ev
}

// note records an effect of the running step, at the virtual time at if any.
//
//divflow:locks requires=shard
func (c *shardCore) note(typ string, gid int, at *exact.Q, format string, args ...any) *effect {
	e := effect{typ: typ, gid: gid, gen: c.gen, format: format, args: args}
	if at != nil {
		e.at, e.timed = *at, true
	}
	c.effects = append(c.effects, e)
	return &c.effects[len(c.effects)-1]
}

// ObserveSolve implements sim.MWFObserver: one settled exact solve.
//
//divflow:locks requires=shard
func (c *shardCore) ObserveSolve(wall time.Duration, solver stats.SolverTally) {
	now := c.eng.Now()
	c.note(obs.EventSolve, -1, &now, "%s", solvePath(solver)).wall = wall
}

// ObserveCacheHit implements sim.MWFObserver: one plan-cache hit.
//
//divflow:locks requires=shard
func (c *shardCore) ObserveCacheHit() {
	now := c.eng.Now()
	c.note(obs.EventPlanCacheHit, -1, &now, "")
}

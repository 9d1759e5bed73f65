package server

import (
	"fmt"
	"maps"
	"math/big"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"divflow/internal/exact"
	"divflow/internal/faults"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/schedule"
	"divflow/internal/shardlink"
	"divflow/internal/sim"
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
	// submittedWall is the wall-clock submission instant, feeding the
	// submit→admit latency histogram; zero with telemetry disabled (the
	// clock is never read then), on migrated records (a re-admission on the
	// destination shard is not a fresh submission) and after a restore.
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

// shard is one independent scheduling loop over a slice of the fleet: its own
// mutex, its own goroutine, its own sim.Engine, and its own policy instance
// (for OnlineMWF variants, its own plan cache).
// P shards give P concurrent exact solves, each over only the shard's live
// jobs — so the superlinear residual LP cost is paid on P-times-smaller
// instances.
type shard struct {
	// idx is the shard's immutable creation index: unique across the whole
	// life of the server (re-sharding keeps spawning shards with fresh
	// indices), it names the shard in stats and errors and fixes the global
	// mutex-acquisition order of the one function that holds every shard's mu
	// at once (Server.cut, under which a snapshot exports and a reshard
	// publishes). No job ever moves under two shard mus.
	idx int

	clock    Clock
	machines []model.Machine // this shard's machines, in fleet order
	inverse  []exact.Q       // the machines' InverseSpeed, for the cost function
	policy   sim.Policy
	mwf      *sim.OnlineMWF // non-nil when policy is an OnlineMWF variant
	// admission is the deadline-admission mode (shardlink.AdmissionStrict,
	// Advisory, or Off) Submit runs deadline checks under; immutable after
	// construction.
	admission string

	//divflow:locks name=shard before=topo
	mu      sync.Mutex
	eng     *sim.Engine
	records recordIndex
	pending []*jobRecord // accepted but not yet admitted
	// Global-ID encoding of this shard within the *current* generation:
	// gid = gidBase + local*stride + pos, where stride is the generation's
	// shard count and pos the shard's position in it. A reshard that keeps
	// the shard re-encodes it (new base/stride/pos, all under mu) so future
	// IDs decode through the new generation, while records born earlier keep
	// their stored gids and decode through the generation that issued them.
	gidBase int
	stride  int
	pos     int
	// machineIdx maps local machine indices to global fleet indices; a
	// reshard that keeps the shard rewrites it (under mu) when the fleet
	// document renumbers machines.
	machineIdx []int
	// gen is the newest topology generation the shard belongs (or belonged)
	// to: 0 at startup, advanced under mu by every reshard that keeps the
	// shard, frozen at retirement. Events and stats are tagged with it.
	gen int
	// obs is the shard's telemetry bundle (histogram children and journal
	// hookup). Always non-nil: newShard installs a detached bundle whose
	// flow histogram still backs the P95 estimate, and the server replaces
	// it with the registry-backed one before the loop starts.
	obs *shardObs
	// retired marks a shard dropped from the active topology by a reshard:
	// its jobs have been migrated away, its loop is about to stop, and it
	// only keeps serving reads of its historical records and trace. The
	// router and the steal protocol must never place new work on it.
	retired bool
	// route is the routing key as last published: the exact residual work
	// (accepted job sizes minus completed ones; a partially processed job
	// counts whole, and so does one whose admit the engine rejected — the
	// shard is poisoned then, and steering new work elsewhere is right), its
	// per-tenant split (untracked traffic absent, zero entries pruned, nil
	// when empty) for the quota check, and lastErr's text. Writers hold mu
	// and store a fresh value; a published value and its map are never
	// written again, so routing reads it without waiting behind a solve.
	route atomic.Pointer[shardlink.RouteInfoReply]

	// steal, when non-nil, asks the server to migrate work here from the
	// largest-backlog shard; the loop calls it (outside mu) whenever it goes
	// idle. Nil with stealing disabled or a single shard.
	steal func() bool
	// wal, when non-nil, is the server's durability layer: submissions,
	// admission batches, completions, migrations, and compaction horizons are
	// appended to the write-ahead log at the point they mutate shard state.
	wal *durability

	// The shard's ledger: ShardTotals here, the per-tenant accounting in
	// tenants below. ledger() is its one reader.
	shardlink.ShardTotals
	lastErr error
	// migratedIDs lists donor-side records awaiting retention compaction
	// (Engine.Compact cannot return them: the engine no longer knows them).
	migratedIDs []int
	// dropForward, when non-nil, releases the server's forwarding-table
	// entry for a compacted stolen record's global ID.
	dropForward func(gid int)
	// link is the router's transport handle on this shard: every piece of
	// router-side traffic — submits, job reads, trace windows, stats,
	// routing keys, migrations — crosses the shardlink boundary through it.
	// Under the in-process transport it is a direct link (straight calls
	// into this struct); under rpc, a loopback net/rpc client.
	link *link

	// tenants accumulates per-tenant statistics like the totals' completed-
	// job aggregates (at submission and completion time, so compaction loses
	// nothing). Never nil. An entry's WFlow and Backlog stay empty here: the
	// live values are the exported histogram and the route's split.
	tenants   shardlink.TenantLedger
	retention exact.Q // zero: keep everything

	started bool
	closed  bool
	wake    chan struct{}
	done    chan struct{}
	stopped chan struct{}
}

// tenantFor returns (creating on first use) the tenant's ledger entry.
// Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) tenantFor(tenant string) *shardlink.TenantTotals {
	ta := sh.tenants[tenant]
	if ta == nil {
		ta = &shardlink.TenantTotals{FlowSum: new(exact.Q)}
		sh.tenants[tenant] = ta
	}
	return ta
}

// buildShard is the one place a shard comes into being, and so the one place
// a spec is checked — whether derived from a platform document or read back
// from a log or snapshot. Under a Server it gets the server's hooks,
// telemetry and link; with s nil it stands alone (tests drive it directly). A
// non-nil state is the shard's snapshot entry, loaded once the shard stands.
func buildShard(s *Server, args *shardlink.InstallArgs, clock Clock, state *snapShard) (*shard, error) {
	spec := args.ShardSpec
	switch {
	case spec.Stride < 1 || spec.Pos < 0 || spec.Pos >= spec.Stride:
		// locate decodes every ID of a generation modulo its stride.
		return nil, fmt.Errorf("shard %d at position %d of %d", spec.Idx, spec.Pos, spec.Stride)
	case len(spec.MachineIdx) != len(spec.Machines):
		// The executed trace is translated through machineIdx on every read.
		return nil, fmt.Errorf("shard %d maps %d machines through %d fleet indices", spec.Idx, len(spec.Machines), len(spec.MachineIdx))
	}
	if err := checkMachines(spec.Machines); err != nil {
		return nil, fmt.Errorf("shard %d: %w", spec.Idx, err)
	}
	admission, err := normalizeAdmission(args.Admission)
	if err != nil {
		return nil, err
	}
	sh := newShard(spec, clock, args.Retention, admission)
	if s != nil {
		s.wireShard(sh)
	}
	if err := sh.resetEngine(args.Policy); err != nil {
		return nil, err
	}
	if state != nil {
		if err := sh.loadState(state); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// newShard allocates the shard spec describes, without an engine yet.
func newShard(spec shardlink.ShardSpec, clock Clock, retention exact.Q, admission string) *shard {
	sh := &shard{
		idx:        spec.Idx,
		pos:        spec.Pos,
		stride:     spec.Stride,
		gidBase:    spec.GidBase,
		gen:        spec.Gen,
		clock:      clock,
		machines:   spec.Machines,
		machineIdx: spec.MachineIdx,
		admission:  admission,
		tenants:    make(shardlink.TenantLedger),
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		stopped:    make(chan struct{}),
	}
	sh.route.Store(&shardlink.RouteInfoReply{})
	if retention.Sign() > 0 {
		sh.retention, sh.LastCompact = retention, new(exact.Q)
	}
	for i := range sh.machines {
		sh.inverse = append(sh.inverse, exact.FromRat(sh.machines[i].InverseSpeed))
	}
	sh.obs = &shardObs{flow: obs.NewHistogram(obs.DefFlowBuckets)}
	return sh
}

// resetEngine gives the shard a fresh policy instance (policies carry per-run
// state: plan caches) and a fresh engine under it, observer wired in. An
// error leaves the shard as it was.
func (sh *shard) resetEngine(policy string) error {
	pol, err := NewPolicy(policy)
	if err != nil {
		return err
	}
	sh.policy, sh.eng = pol, sim.NewEngine(len(sh.machines), sh.cost, pol)
	if sh.mwf, _ = pol.(*sim.OnlineMWF); sh.mwf != nil {
		sh.mwf.Observer = sh.obs
	}
	return nil
}

// reencode moves a kept shard into a generation: IDs it issues from here on
// decode through it, and its machines answer to the new platform document's
// indices (a no-op reshard changes only those). Callers hold sh.mu, or run
// before any loop starts.
func (sh *shard) reencode(gen, base, stride, pos int, machineIdx []int) {
	sh.gen, sh.gidBase, sh.stride, sh.pos = gen, base, stride, pos
	sh.machineIdx = append([]int(nil), machineIdx...)
}

// renumber re-points the machines of a shard outside the active topology at a
// new platform document, by name: the merged /v1/schedule interprets every
// piece against the current platform, and without the remap a retired shard's
// history would keep indices into a document that no longer exists — one
// response mixing two numbering schemes. A machine absent from the new
// platform keeps its historical index (there is no right answer for a machine
// that left). Callers hold sh.mu, or run before any loop starts.
func (sh *shard) renumber(fleetIdx map[string]int) {
	for i := range sh.machineIdx {
		if ni, ok := fleetIdx[sh.machines[i].Name]; ok {
			sh.machineIdx[i] = ni
		}
	}
}

// globalID encodes a shard-local job ID into the wire-visible global ID
// under the shard's current-generation encoding. With a single never-
// resharded shard the encoding is the identity. Callers hold sh.mu (a
// reshard that keeps the shard re-encodes these fields under it).
//
//divflow:locks requires=shard
func (sh *shard) globalID(local int) int { return sh.gidBase + local*sh.stride + sh.pos }

// hosts reports whether some machine of the shard hosts every databank.
func (sh *shard) hosts(databanks []string) bool { return hostsAny(sh.machines, databanks) }

// hostMask is a new record's hosts: which of the shard's machines host every
// databank the job names.
func (sh *shard) hostMask(databanks []string) []bool {
	mask := make([]bool, len(sh.machines))
	for i := range sh.machines {
		mask[i] = sh.machines[i].Hosts(databanks)
	}
	return mask
}

// cost is the shard engine's CostFunc: the uniform model over the shard's
// machines, c_{i,j} = Size_j · InverseSpeed_i where machine i hosts job j's
// databanks, multiplied on exact.Q's words. Compaction forgets records, so a
// stale or out-of-range ID must answer ok=false, not dereference a nil record
// and kill the loop goroutine.
func (sh *shard) cost(machine, jobID int) (exact.Q, bool) {
	rec := sh.records.get(jobID)
	if rec == nil {
		return exact.Q{}, false
	}
	if machine < 0 || machine >= len(rec.hosts) || !rec.hosts[machine] {
		return exact.Q{}, false
	}
	return rec.Size.Mul(sh.inverse[machine]), true
}

// now is the clock's reading as a value.
func (sh *shard) now() exact.Q { return exact.FromRat(sh.clock.Now()) }

// start launches the shard's scheduling loop. Safe to call once.
func (sh *shard) start() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.started || sh.closed {
		return
	}
	sh.started = true
	go sh.loop()
}

// close stops accepting submissions, terminates the loop, and then drains
// every accepted-but-never-admitted job into the terminal StateRejected —
// with its size taken back out of the backlog — so post-shutdown job reads
// and stats are truthful instead of claiming a queue that will never move.
func (sh *shard) close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	started := sh.started
	sh.mu.Unlock()
	close(sh.done)
	if started {
		<-sh.stopped
	}
	// The loop is gone (or never ran): whatever is still pending can be
	// drained without racing an admission.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.pending) == 0 {
		return
	}
	for _, rec := range sh.pending {
		rec.State = StateRejected
		sh.obs.event(obs.EventReject, rec.GID, "shutdown drained the queued job")
	}
	sh.shiftBacklog(false, sh.pending...)
	sh.pending = nil
}

// submit accepts one job onto this shard, stamping its flow origin (release)
// now, under the shard lock — so per-shard release dates are non-decreasing
// in local ID order. It returns the wire-visible global ID; the loop admits
// the job at its next wake-up, so submissions racing one re-solve share it.
// A shard retired by a racing reshard answers errRetired: the router re-reads
// the active topology and routes again.
//
// A job carrying a deadline is first checked against the shard's residual
// workload (unless the shard was installed with AdmissionOff): the plan the
// shard follows answers when it can, the deadline-feasibility LP otherwise
// (admissionCheck). The returned certificate is exact, and under
// AdmissionStrict an infeasible deadline is refused with errDeadline — the
// certificate then names the best achievable counter-offer deadline — before
// any state (WAL included) is touched by this submission.
// The job is checked first: a Submit message may come from any caller of the
// link, not only a router that already checked it.
func (sh *shard) submit(job model.Job) (int, *model.AdmissionCertificate, error) {
	if err := job.CheckSubmission(); err != nil {
		return 0, nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.retired {
		return 0, nil, errRetired
	}
	if sh.closed {
		return 0, nil, ErrClosed
	}
	if !sh.hosts(job.Databanks) {
		return 0, nil, fmt.Errorf("server: no machine hosts databanks %v", job.Databanks)
	}
	// The flow origin is the submission time: queueing delay before the loop
	// admits the job counts against its flow, exactly like the paper's online
	// adaptation measures flows from submission.
	job.Release = sh.clock.Now()
	r := &recSubmit{Shard: sh.idx, Local: sh.records.next(), Job: job}
	r.GID = sh.globalID(r.Local)
	if r.Name == "" {
		r.Name = fmt.Sprintf("job-%d", r.GID)
	}
	var cert *model.AdmissionCertificate
	if job.Deadline != nil && sh.admission != shardlink.AdmissionOff {
		cand := shardlink.JobOf(r.Job)
		var err error
		cert, err = sh.admissionCheck(cand)
		if err != nil {
			return 0, nil, err
		}
		if cert != nil && !cert.Feasible && sh.admission == shardlink.AdmissionStrict {
			sh.obs.event(obs.EventReject, -1,
				fmt.Sprintf("deadline %v infeasible against %d residual jobs", cand.Deadline, cert.ResidualJobs), cand.Release)
			return 0, cert, errDeadline
		}
	}
	if err := sh.run(r); err != nil {
		return 0, nil, err
	}
	sh.records.get(r.Local).submittedWall = sh.obs.now()
	sh.poke()
	return r.GID, cert, nil
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
// Callers hold sh.mu; the job passed CheckSubmission.
//
//divflow:locks requires=shard
func (sh *shard) admissionCheck(job shardlink.Job) (*model.AdmissionCertificate, error) {
	// Catch the engine up to the release, the one instant both the census and
	// the free machines are measured at. This is the catch-up the loop would
	// run at its next wake-up, so no-deadline traffic (which never reaches
	// this function) keeps its trace bit-for-bit.
	now, ok := sh.catchUpTo(job.Release)
	if !ok {
		if sh.admission == shardlink.AdmissionStrict {
			return nil, errAdmissionStalled
		}
		return nil, nil
	}
	cert := &model.AdmissionCertificate{Mode: sh.admission, Deadline: job.Deadline.String()}
	if live := sh.eng.Snapshot(); sh.planAdmits(live, job) == planAnswers {
		// The LP's instance would be the live jobs and the candidate.
		cert.ResidualJobs, cert.Feasible = len(live.Jobs)+1, true
		return cert, nil
	}
	// The candidate takes the local ID it would be given, and the last index.
	cand := sim.JobState{ID: sh.records.next(), Release: job.Release, Remaining: exact.Int(1), Weight: job.Weight, Size: job.Size}
	cost := func(i, id int) (exact.Q, bool) {
		if id != cand.ID {
			return sh.cost(i, id)
		}
		if !sh.machines[i].Hosts(job.Databanks) {
			return exact.Q{}, false
		}
		return job.Size.Mul(sh.inverse[i]), true
	}
	snap := &sim.Snapshot{Now: now, Jobs: append(sh.census(), cand), M: len(sh.machines), Cost: cost}
	res, err := snap.Residual()
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: admission instance: %w", sh.idx, err)
	}
	k := len(snap.Jobs) - 1
	held := make([]*exact.Q, len(snap.Jobs))
	for j := range snap.Jobs[:k] {
		if rec := sh.records.get(snap.Jobs[j].ID); rec.Deadline.Sign() != 0 {
			held[j] = &rec.Deadline
		}
	}
	candDeadline := job.Deadline
	held[k] = &candDeadline
	mode := schedule.Divisible
	if sh.mwf != nil {
		mode = sh.mwf.Mode
	}
	cert.ResidualJobs = len(snap.Jobs)
	feasible, err := res.DeadlineFeasible(held, mode)
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: deadline feasibility: %w", sh.idx, err)
	}
	cert.Feasible = feasible
	if feasible {
		return cert, nil
	}
	counter, ok, err := res.BestDeadline(held, k, mode)
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: counter-offer search: %w", sh.idx, err)
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
// caught-up engine's snapshot. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) planAdmits(live *sim.Snapshot, job shardlink.Job) planVerdict {
	if sh.mwf == nil || sh.mwf.Mode != schedule.Divisible || len(sh.pending) != 0 {
		return planUnavailable
	}
	ahead, ok := sh.mwf.PlanAhead(live)
	if !ok {
		return planUnavailable
	}
	busy := make([]exact.Q, len(sh.machines)) // plan time inside [now, deadline]
	for _, piece := range ahead {
		if rec := sh.records.get(piece.Job); rec != nil && rec.Deadline.Sign() != 0 && piece.End.Cmp(rec.Deadline) > 0 {
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
	for i := range sh.machines {
		if sh.machines[i].Hosts(job.Databanks) {
			done = done.Add(window.Sub(busy[i]).Quo(job.Size.Mul(sh.inverse[i])))
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
// check read this one list; a view's record is sh.records.get(v.ID). Reserved
// records (extracted, awaiting commit) are in neither part. Callers hold
// sh.mu, with the engine caught up when remaining fractions matter.
//
//divflow:locks requires=shard
func (sh *shard) census() []sim.JobState {
	live := sh.eng.Snapshot().Jobs
	views := make([]sim.JobState, 0, len(sh.pending)+len(live))
	for _, rec := range sh.pending {
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
// once no matter how often it moves. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) adoptRecord(mj *shardlink.MigratedJob) *jobRecord {
	nrec := &jobRecord{
		ID: sh.records.next(), GID: mj.GID, State: StateQueued,
		Job:       mj.Job, // Release included: the flow origin is still the first submission
		Remaining: mj.Remaining, Stolen: true, Counted: mj.Counted,
		hosts: sh.hostMask(mj.Databanks),
	}
	sh.records.add(nrec)
	sh.pending = append(sh.pending, nrec)
	return nrec
}

// shiftBacklog moves the records' sizes into (or out of) the backlog and its
// per-tenant split (untracked traffic is not split, zero entries are pruned)
// and publishes the result in one store: a birth, the destination's half of a
// migration on admit, the donor's on commit, and the shutdown drain. Callers
// hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) shiftBacklog(in bool, recs ...*jobRecord) {
	r := *sh.route.Load()
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
			maps.Copy(r.TenantBacklog, sh.route.Load().TenantBacklog)
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
	sh.route.Store(&r)
}

// poke wakes the shard's loop if it is sleeping; a no-op when a wake-up is
// already queued. The server pokes idle shards when work lands elsewhere so
// they re-run their steal check.
func (sh *shard) poke() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// historyEmpty reports whether every record has been compacted away and
// nothing is pending — a retired shard with no history left has nothing to
// serve and its loop can stop for good. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) historyEmpty() bool { return len(sh.pending) == 0 && len(sh.records.recs) == 0 }

// loop is the scheduling event loop: process everything due, arm a timer
// for the next engine event, sleep until the timer or a submission wakes it.
// A loop that finds itself idle — no live jobs, nothing pending, no latched
// error — first tries to steal work from an overloaded shard, and on success
// goes straight back to processing instead of sleeping. A *retired* shard
// under a retention policy keeps a low-duty-cycle loop alive purely to run
// compaction — one wake-up per retention window — so `-retention` keeps
// bounding memory (and releasing forwarding entries) across reshards; once
// its whole history is compacted the loop exits for good, leaving an
// ordinary shard with no records, jobs, pieces or plan.
func (sh *shard) loop() {
	defer close(sh.stopped)
	for {
		res := sh.loopIter()
		if res.exit {
			return
		}

		// The steal call runs outside mu: the exchange takes the donor's mu
		// and then this shard's own, one at a time.
		if res.idle && sh.steal != nil && sh.steal() {
			continue
		}

		var timer <-chan struct{}
		cancel := func() {}
		if res.next != nil {
			timer, cancel = sh.clock.At(res.next)
		}
		select {
		case <-sh.done:
			cancel()
			return
		case <-sh.wake:
		case <-timer:
		}
		// Release the timer before re-arming: wake-ups during a long-lived
		// event would otherwise pile up pending timers until its deadline.
		cancel()
	}
}

// loopResult is what one supervised loop iteration tells the outer loop.
type loopResult struct {
	next *big.Rat // next engine event to sleep toward (nil: no deadline)
	idle bool     // healthy with nothing to do: try stealing
	exit bool     // retired shard fully drained: stop for good
}

// loopIter is one supervised iteration of the scheduling loop: the locked
// body runs under the panic barrier, so a panic anywhere in the engine or
// policy latches the shard as stalled instead of killing the process.
func (sh *shard) loopIter() (res loopResult) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.barrier()
	if sh.retired && sh.historyEmpty() {
		// Nothing left to serve or compact: retired with no records (or
		// restored so), the catch-up would only move the engine's clock.
		return loopResult{exit: true}
	}
	sh.process()
	if next, ok := sh.eng.NextEvent(); ok {
		res.next = next.Rat()
	}
	// A retired shard must never pull work back onto itself: its loop is
	// only alive to finish compacting its history.
	res.idle = sh.lastErr == nil && sh.eng.Live() == 0 && len(sh.pending) == 0 && !sh.retired
	res.exit = sh.retired && (sh.retention.Sign() == 0 || sh.historyEmpty())
	if sh.retired && !res.exit && res.next == nil {
		res.next = sh.now().Add(sh.retention).Rat()
	}
	return res
}

// barrier is the shard's panic barrier, deferred by a caller holding sh.mu: a
// caught panic latches the shard — it reports stalled, with the panic as its
// error, counted and journaled with its stack, the daemon still serving — and
// the caller returns its results as they stand.
//
//divflow:locks requires=shard
func (sh *shard) barrier() {
	r := recover()
	if r == nil {
		return
	}
	stack := debug.Stack()
	stack = stack[:min(len(stack), 4096)]
	sh.Panics++
	sh.fail(fmt.Errorf("server: shard %d: panic: %v", sh.idx, r))
	sh.obs.event(obs.EventShardPanic, -1, fmt.Sprintf("%v\n%s", r, stack), sh.eng.Now())
}

// catchUpTo advances the engine through every completion/review event due by
// now and then to now, executing the installed allocation — without admitting
// pending submissions: they have no executed work to conserve, and a steal's
// census must not force a full-size solve the steal is about to shrink. The
// loop and a steal's donor catch up to the clock (sh.now()); shard.run drives
// a restored shard to each record's time, so a restored engine retraces
// exactly the events the original crossed; admission catches up to the
// candidate's release. It returns the time reached and whether the shard is
// still healthy. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) catchUpTo(now exact.Q) (exact.Q, bool) {
	if now.Cmp(sh.eng.Now()) < 0 {
		// A timer fired marginally early (wall-clock rounding): treat the
		// engine's exact time as authoritative.
		now = sh.eng.Now()
	}
	for {
		next, ok := sh.eng.NextEvent()
		if !ok || next.Cmp(now) > 0 {
			break
		}
		if !sh.step(next) {
			return now, false
		}
	}
	// Partial progress up to the present, crossing no event.
	if _, err := sh.eng.AdvanceTo(now); err != nil {
		sh.fail(err)
		return now, false
	}
	return now, true
}

// process catches the engine up with the clock and then admits all pending
// submissions as one batch. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) process() {
	now, ok := sh.catchUpTo(sh.now())
	if !ok {
		return
	}
	sh.compact(now)
	sh.admitAll(now)
}

// admitAll admits every pending submission as one batch at time now, through
// the admit transition. Callers hold sh.mu; the engine is caught up to now.
//
//divflow:locks requires=shard
func (sh *shard) admitAll(now exact.Q) {
	if len(sh.pending) == 0 {
		return
	}
	r := &recAdmit{Shard: sh.idx, At: now, Locals: make([]int, len(sh.pending))}
	for i, rec := range sh.pending {
		r.Locals[i] = rec.ID
		// The submit→admit latency ends at the batch's admission attempt.
		if !rec.submittedWall.IsZero() {
			sh.obs.submitAdmit.Observe(sh.obs.sinceSeconds(rec.submittedWall))
			rec.submittedWall = time.Time{}
		}
	}
	if err := sh.run(r); err != nil {
		sh.fail(err)
	}
}

// step advances the engine to the event at t, runs the complete transition
// for every job done there, and re-runs the policy. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) step(t exact.Q) bool {
	done, err := sh.eng.AdvanceTo(t)
	if err != nil {
		sh.fail(err)
		return false
	}
	for _, id := range done {
		if err := sh.run(&recComplete{Shard: sh.idx, Local: id, GID: sh.records.get(id).GID, At: t}); err != nil {
			sh.fail(err)
			return false
		}
	}
	return sh.decide()
}

// compact enforces the retention bound: everything that finished more than
// retention before now is dropped from the engine's executed trace and from
// the per-job records (their statistics were already aggregated at
// completion). Donor-side records of migrated jobs — which the engine never
// completes, so Engine.Compact never returns them — are dropped once the
// horizon passes their migration time (all their local pieces end by then),
// and compacted *stolen* records release their forwarding-table entry, so a
// retention-bounded service stays bounded under steady stealing. Callers
// hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) compact(now exact.Q) {
	if sh.retention.Sign() == 0 {
		return
	}
	horizon := now.Sub(sh.retention)
	if horizon.Sign() <= 0 || horizon.Cmp(*sh.LastCompact) <= 0 {
		return
	}
	if err := sh.run(&recCompact{Shard: sh.idx, Now: now, Horizon: horizon}); err != nil {
		sh.fail(err)
	}
}

// noteMakespan raises the makespan high-water mark to the current executed
// trace's makespan. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) noteMakespan() {
	if ms := sh.eng.Makespan(); sh.MakespanHW == nil || ms.Cmp(*sh.MakespanHW) > 0 {
		sh.MakespanHW = &ms
	}
}

// makespan returns the whole-execution makespan: the maximum of the retained
// trace's makespan and the high-water mark from before compactions. Callers
// hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) makespan() exact.Q {
	ms := sh.eng.Makespan()
	if sh.MakespanHW != nil && sh.MakespanHW.Cmp(ms) > 0 {
		ms = *sh.MakespanHW
	}
	return ms
}

// decide runs the policy and flags a stall (live work but no upcoming
// event: the policy idled, or its inner solver failed). A policy panic stops
// at its barrier, wherever the decision runs — in the loop or in a catch-up
// outside it — and reports ok false, its zero value, like a failed decision.
// Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) decide() (ok bool) {
	defer sh.barrier()
	// The fault-injection harness plants a panic here, exactly where a
	// policy bug would blow up, to exercise the barrier's recover/latch path.
	faults.MaybePanic(faults.PanicInPolicy)
	if err := sh.eng.Decide(); err != nil {
		sh.fail(err)
		return false
	}
	// Once fail() recorded an engine error it stays latched: later decisions
	// on a poisoned engine must not report the service healthy.
	if _, pending := sh.eng.NextEvent(); sh.lastErr == nil && sh.eng.Live() > 0 && !pending {
		err := fmt.Errorf("server: shard %d: policy %s idles with %d live jobs", sh.idx, sh.policy.Name(), sh.eng.Live())
		if sh.mwf != nil && sh.mwf.Err() != nil {
			err = sh.mwf.Err()
		}
		sh.fail(err)
	}
	return true
}

// fail latches a loop error — the first one stays — and publishes its text
// in the routing key, where the router sees it without taking mu; the shard
// keeps serving reads. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) fail(err error) {
	if sh.lastErr == nil {
		sh.lastErr = err
		sh.obs.event(obs.EventShardStall, -1, err.Error(), sh.eng.Now())
	}
	r := *sh.route.Load()
	r.Err = sh.lastErr.Error()
	sh.route.Store(&r)
}

// jobStatus builds the wire status of the shard-local job answering to the
// given global ID. known is false for unknown, compacted, or migrated-away
// records, and for records whose global ID is not the requested one: a
// stolen record occupies a local slot whose arithmetic encoding belongs to
// a different (possibly never-issued) global ID, which must not leak
// another job's status. migrated distinguishes the one retryable miss — the
// job left for another shard, so the caller should chase the forwarding
// table again — from definitive not-found answers.
func (sh *shard) jobStatus(local, gid int) (st model.JobStatus, known, migrated bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.records.get(local)
	if rec == nil {
		return model.JobStatus{}, false, false
	}
	if rec.State == StateMigrated {
		return model.JobStatus{}, false, rec.GID == gid
	}
	if rec.GID != gid {
		return model.JobStatus{}, false, false
	}
	st = model.JobStatus{
		ID:        rec.GID,
		Name:      rec.Name,
		State:     rec.State,
		Weight:    rec.Weight.String(),
		Size:      rec.Size.String(),
		Databanks: rec.Databanks,
		Release:   rec.Release.String(),
		Tenant:    rec.Tenant,
		SLAClass:  rec.SLAClass,
	}
	if rec.Deadline.Sign() != 0 {
		st.Deadline = rec.Deadline.String()
	}
	if rec.State == StateScheduled {
		if rem, ok := sh.eng.Remaining(rec.ID); ok {
			st.Remaining = rem.String()
		}
	}
	if rec.State == StateDone {
		flow := rec.Completed.Sub(rec.Release)
		st.CompletedAt = rec.Completed.String()
		st.Flow = flow.String()
		st.WeightedFlow = rec.Weight.Mul(flow).String()
		st.Stretch = flow.Quo(rec.Size).String()
		if rec.Deadline.Sign() != 0 {
			met := rec.Completed.Cmp(rec.Deadline) <= 0
			st.DeadlineMet = &met
		}
	}
	return st, true, false
}

// scheduleSnapshot copies the shard's executed trace, windowed to the pieces
// ending after since (a piece straddling since comes back whole), in
// fleet/global space and in *big.Rat, plus the shard's time and monotone
// makespan. The caller serializes the copy after the lock is released.
func (sh *shard) scheduleSnapshot(since exact.Q) (rep shardlink.ScheduleReply) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rep.Makespan = sh.makespan()
	rep.Now = sh.eng.Now()
	for _, pc := range sh.eng.Pieces() {
		// Records outlive their pieces (compaction drops a job's pieces no
		// later than its record), so the translation to the global ID — which
		// for a migrated job is not the arithmetic encoding of the local ID —
		// always has a record to read.
		if pc.End.Cmp(since) > 0 {
			rep.Pieces = append(rep.Pieces, schedule.Piece{Machine: sh.machineIdx[pc.Machine], Job: sh.records.get(pc.Job).GID,
				Start: pc.Start.Rat(), End: pc.End.Rat(), Fraction: pc.Fraction.Rat()})
		}
	}
	return rep
}

// ledger copies the shard's ledger out from under its lock: the one reader
// the snapshot and the stats reply — and through them every fleet read —
// share. The copy is complete: what lives outside the ledger structs (the two
// flow histograms, the routing-side backlog split) is filled in, so a tenant
// that only ever had migrated work here (a backlog, no entry) appears too.
// Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) ledger() (shardlink.ShardTotals, shardlink.TenantLedger) {
	totals := sh.ShardTotals.Clone()
	if flow := sh.obs.flow.Snapshot(); flow.Count > 0 {
		totals.Flow = &flow
	}
	tenants := sh.tenants.Clone()
	for t, tt := range tenants {
		if wflow := sh.obs.tenantWFlow(t).Snapshot(); wflow.Count > 0 {
			tt.WFlow = &wflow
		}
	}
	for t, b := range sh.route.Load().TenantBacklog {
		tenants.Merge(shardlink.TenantLedger{t: {Backlog: b}})
	}
	return totals, tenants
}

// statsSnapshot captures the shard's counters under its lock, in the wire
// form every transport ships (shardlink.StatsSnapshot).
func (sh *shard) statsSnapshot() shardlink.StatsSnapshot {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	names := make([]string, len(sh.machines))
	for i := range sh.machines {
		names[i] = sh.machines[i].Name
	}
	backlog := sh.route.Load().Backlog
	engNow := sh.eng.Now()
	snap := shardlink.StatsSnapshot{
		Wire: model.ShardStats{
			Shard:      sh.idx,
			Generation: sh.gen,
			Machines:   names,
			Now:        engNow.String(),
			// Births only: records created by a steal or reshard migration are
			// counted by their birth shard, so the fleet aggregate sees every
			// job exactly once.
			JobsAccepted:    sh.records.next() - sh.StolenIn - sh.ReshardIn,
			JobsQueued:      len(sh.pending),
			JobsLive:        sh.eng.Live(),
			JobsCompleted:   sh.eng.CompletedCount(),
			Events:          sh.eng.Decisions(),
			ArrivalBatches:  sh.ArrivalBatches,
			BatchedArrivals: sh.BatchedArrivals,
			LargestBatch:    sh.LargestBatch,
			CompactedJobs:   sh.CompactedJobs,
			StolenJobs:      sh.StolenIn,
			Migrations:      sh.MigratedOut,
			ReshardedIn:     sh.ReshardIn,
			ReshardedOut:    sh.ReshardOut,
			Retired:         sh.retired,
			Freed:           sh.retired && sh.historyEmpty(),
			Backlog:         backlog.String(),
			Stalled:         sh.lastErr != nil,
			Panics:          sh.Panics,
		},
		Now: engNow,
	}
	snap.Totals, snap.Tenants = sh.ledger()
	snap.BacklogF = backlog.Float64()
	if sh.mwf != nil {
		snap.Wire.LPSolves = sh.mwf.Solves()
		snap.Wire.PlanCacheHits = sh.mwf.CacheHits()
		snap.Wire.Solver = sh.mwf.SolverTally()
	}
	if sh.lastErr != nil {
		snap.Wire.LastError = sh.lastErr.Error()
	}
	return snap
}

package server

import (
	"fmt"
	"math/big"
	"strconv"
	"sync"
	"time"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/schedule"
	"divflow/internal/shardlink"
)

// shard is one independent scheduling loop over a slice of the fleet: its
// core (shardCore, the state and every transition of it, embedded by value)
// in the shell that runs it — its own mutex, clock, goroutine and wake-up
// channels, the router's link and hooks, and the telemetry it reports to. P
// shards give P concurrent exact solves, each over only the shard's live jobs
// — so the superlinear residual LP cost is paid on P-times-smaller instances.
type shard struct {
	shardCore

	clock Clock
	//divflow:locks name=shard before=topo
	mu sync.Mutex

	// tel is the server's telemetry (nil: none); submitAdmit and stealSeconds
	// are the shard's latency children there, made with the shard.
	tel                       *telemetry
	submitAdmit, stealSeconds *obs.Histogram

	// steal, when non-nil, asks the server to migrate work here from the
	// largest-backlog shard; the loop calls it (outside mu) whenever it goes
	// idle. Nil with stealing disabled or a single shard.
	steal func() bool
	// dropForward, when non-nil, releases the server's forwarding-table
	// entries of compacted stolen records, by global ID.
	dropForward func(gids []int)
	// link is the router's transport handle on this shard: all router-side
	// traffic crosses the shardlink boundary through it, in process or over
	// a loopback net/rpc client.
	link *link

	started bool
	closed  bool
	wake    chan struct{}
	done    chan struct{}
	stopped chan struct{}
}

// buildShard builds a shell on clock and tel around the core shardCore.build
// makes (where the spec is checked), with no hooks or link yet: a Server
// wires them (wireShard), a shell-level test drives the shard as it stands.
func buildShard(args *shardlink.InstallArgs, clock Clock, dur *durability, tel *telemetry, state *snapShard) (*shard, error) {
	sh := &shard{clock: clock, tel: tel, wake: make(chan struct{}, 1), done: make(chan struct{}), stopped: make(chan struct{})}
	if err := sh.build(args, dur, state); err != nil {
		return nil, err
	}
	if tel != nil {
		l := strconv.Itoa(sh.idx)
		sh.submitAdmit, sh.stealSeconds = tel.submitAdmit.With(l), tel.stealSeconds.With(l)
	}
	return sh, nil
}

// unlock ends a hold of mu, reporting the core's effects first. The holds
// that step or read the core end here, but a migration's: Server.cut drains.
//
//divflow:locks requires=shard
func (sh *shard) unlock() {
	sh.drain()
	sh.mu.Unlock()
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
	defer sh.unlock()
	if len(sh.pending) == 0 {
		return
	}
	for _, rec := range sh.pending {
		rec.State = StateRejected
		sh.note(obs.EventReject, rec.GID, nil, "shutdown drained the queued job")
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
	defer sh.unlock()
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
			sh.note(obs.EventReject, -1, &cand.Release, "deadline %v infeasible against %d residual jobs", cand.Deadline, cert.ResidualJobs)
			return 0, cert, errDeadline
		}
	}
	if err := sh.run(r); err != nil {
		return 0, nil, err
	}
	sh.records.get(r.Local).submittedWall = sh.tel.now()
	sh.poke()
	return r.GID, cert, nil
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

		// The steal call runs outside mu: the migration takes this shard's
		// mu together with the donor's.
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
	defer sh.unlock()
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

// process catches the engine up with the clock, compacts — releasing the
// forwarding entries of compacted stolen records — and then admits all
// pending submissions as one batch, where their submit→admit latency ends.
//
//divflow:locks requires=shard
func (sh *shard) process() {
	now, ok := sh.catchUpTo(sh.now())
	if !ok {
		return
	}
	if gids := sh.compact(now); gids != nil && sh.dropForward != nil {
		sh.dropForward(gids)
	}
	for _, rec := range sh.pending {
		if !rec.submittedWall.IsZero() {
			sh.submitAdmit.Observe(sh.tel.sinceSeconds(rec.submittedWall))
			rec.submittedWall = time.Time{}
		}
	}
	sh.admitAll(now)
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
	defer sh.unlock()
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
	defer sh.unlock()
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

// statsSnapshot captures the shard's counters under its lock, in the wire
// form every transport ships (shardlink.StatsSnapshot).
func (sh *shard) statsSnapshot() shardlink.StatsSnapshot {
	sh.mu.Lock()
	defer sh.unlock()
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

package server

import (
	"errors"
	"fmt"
	"slices"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
)

// The WAL's records and their transitions. Each record type has one
// transition — check the record against the shard's core, append it, mutate —
// and the live shells, which make every decision, and restore (Server.replay)
// all reach it through shardCore.run. Topology's is Server.installGeneration.

// WAL record types.
const (
	walTypeSubmit   = "submit"
	walTypeAdmit    = "admit"
	walTypeComplete = "complete"
	walTypeTopo     = "topology"
	walTypeCompact  = "compact"
	// The steps of a migration, logged back to back by Server.migrate, each
	// through the shard whose state it changes.
	walTypeExtract = "extract"
	walTypeAdopt   = "adopt"
	walTypeCommit  = "commit"
	walTypeAbort   = "abort"
)

// walRecord is a record decoded from the log. head is the shard it names (-1:
// topology), the time it carries (zero for none; restore resumes the clock at
// the latest) and whether that is the engine time its shard runs it at.
type walRecord interface {
	head() (shard int, t exact.Q, engine bool)
}

// shardRecord is a record of one shard's state: every type but topology. Its
// transition, apply, runs only through shardCore.run.
type shardRecord interface {
	walRecord
	apply(c *shardCore) error
}

// walKinds is the one kind → type table restore decodes each record through.
var walKinds = map[string]func() walRecord{
	walTypeSubmit:   func() walRecord { return new(recSubmit) },
	walTypeAdmit:    func() walRecord { return new(recAdmit) },
	walTypeComplete: func() walRecord { return &recComplete{logged: true} },
	walTypeCompact:  func() walRecord { return new(recCompact) },
	walTypeExtract:  func() walRecord { return new(recExtract) },
	walTypeAdopt:    func() walRecord { return new(recAdopt) },
	walTypeCommit:   func() walRecord { return &recSettle{kind: walTypeCommit} },
	walTypeAbort:    func() walRecord { return &recSettle{kind: walTypeAbort} },
	walTypeTopo:     func() walRecord { return new(recTopo) },
}

// run is the one door to a shard's transitions. A record that runs at an
// engine time is refused when the engine is already past it, and otherwise
// the engine catches up to it first (live records are built at the engine's
// time, so only restore catches up). A catch-up that fails has latched the
// shard, as it latched the run that wrote the record, and the record runs on
// the latched shard, as a latched donor still gives.
//
//divflow:locks requires=shard
func (c *shardCore) run(r shardRecord) error {
	if _, t, engine := r.head(); engine {
		switch now := c.eng.Now(); t.Cmp(now) {
		case -1:
			return fmt.Errorf("shard %d record dated %v is behind its engine at %v", c.idx, t, now)
		case 1:
			c.catchUpTo(t)
		}
	}
	return r.apply(c)
}

// replay runs one logged record through the transition the live path ran
// when it wrote it.
func (s *Server) replay(r walRecord) error {
	if topo, ok := r.(*recTopo); ok {
		_, _, err := s.installGeneration(topo, nil)
		return err
	}
	idx, _, _ := r.head()
	sh, err := s.shardByIdx(idx)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	err = sh.run(r.(shardRecord))
	sh.unlock()
	if err != nil {
		return err
	}
	// The router points the forwarding table at adopted jobs once the
	// destination accepts them (Server.migrate), and releases the entries of
	// compacted ones (shard.process); so does restore.
	switch r := r.(type) {
	case *recAdopt:
		s.forwardTo(sh, r.Jobs, r.locals)
	case *recCompact:
		s.dropForward(r.released)
	}
	return nil
}

// recSubmit logs one accepted submission: the job as model.Job writes itself
// (rationals as exact "p/q" strings), release stamped. SLA fields are absent
// in pre-deadline logs, which restore as deadline-free untracked traffic —
// exactly what they were.
type recSubmit struct {
	Shard int `json:"shard"` // creation index
	Local int `json:"local"`
	GID   int `json:"gid"`
	model.Job
}

func (r *recSubmit) head() (int, exact.Q, bool) { return r.Shard, exact.FromRat(r.Release), false }

// apply is the submit transition: the job takes the shard's next local slot
// and joins the pending queue, the tenant's birth counters and the backlog,
// its hosts fixed, and an effect notes the submission. The record is
// appended before any of that, so a crash between the append and the
// mutation restores the job rather than losing an acknowledged submission.
//
//divflow:locks requires=shard
func (r *recSubmit) apply(c *shardCore) error {
	if c.records.next() != r.Local {
		return fmt.Errorf("shard %d expects local %d, record says %d", c.idx, c.records.next(), r.Local)
	}
	if r.Release == nil {
		return fmt.Errorf("submit %d missing its release", r.GID)
	}
	if err := r.Job.CheckSubmission(); err != nil {
		return fmt.Errorf("submit %d: %w", r.GID, err)
	}
	rec := &jobRecord{ID: r.Local, GID: r.GID, State: StateQueued, Job: shardlink.JobOf(r.Job), hosts: c.hostMask(r.Databanks)}
	if !slices.Contains(rec.hosts, true) {
		return fmt.Errorf("submit %d: no machine of shard %d hosts %v", r.GID, c.idx, r.Databanks)
	}
	c.wal.append(walTypeSubmit, r)
	c.records.add(rec)
	c.pending = append(c.pending, rec)
	if rec.Tenant != "" {
		c.tenantFor(rec.Tenant).Merge(shardlink.TenantTotals{Submitted: 1, ByClass: map[string]int{rec.SLAClass: 1}})
	}
	c.shiftBacklog(true, rec)
	c.note(obs.EventSubmit, rec.GID, &rec.Release, "")
	return nil
}

// recAdmit logs one admission batch: the virtual time the loop admitted the
// listed pending jobs at. The executed trace is a deterministic function of
// these times, so admitting at them again reproduces it exactly.
type recAdmit struct {
	Shard  int     `json:"shard"`
	At     exact.Q `json:"at"`
	Locals []int   `json:"locals"`
}

func (r *recAdmit) head() (int, exact.Q, bool) { return r.Shard, r.At, true }

// apply is the admit transition: the pending queue, exactly the records it
// lists, enters the engine as one batch; the policy then re-decides.
//
//divflow:locks requires=shard
func (r *recAdmit) apply(c *shardCore) error {
	if len(c.pending) != len(r.Locals) {
		return fmt.Errorf("shard %d has %d pending, admit record lists %d", c.idx, len(c.pending), len(r.Locals))
	}
	for i, rec := range c.pending {
		if rec.ID != r.Locals[i] {
			return fmt.Errorf("shard %d pending[%d] = %d, admit record says %d", c.idx, i, rec.ID, r.Locals[i])
		}
		if err := rec.releasedBy(c, "admit", r.At); err != nil {
			return err
		}
	}
	c.wal.append(walTypeAdmit, r)
	batch := c.pending
	c.pending = nil
	// Arrival-batch statistics count each job's *first* admission only: a
	// job stolen after it was admitted once is not a new arrival, while one
	// stolen straight out of the pending queue is counted here, by its first
	// admitter. Fleet-wide, BatchedArrivals converges to exactly the
	// submission count no matter how often jobs migrate (the same
	// once-per-job rule JobsAccepted follows).
	native := 0
	for k, rec := range batch {
		// Stolen jobs carry the unprocessed fraction they arrived with; the
		// release stays the original submission time in both cases, so flow
		// and stretch keep measuring from first contact with the service.
		if err := c.eng.AddPartial(rec.ID, rec.Release, rec.Weight, rec.Size, rec.Remaining); err != nil {
			// Keep the unadmitted tail (failed record included) in pending:
			// those jobs stay visible to the steal census — another shard can
			// still rescue them — and to the close() drain, which must mark
			// them rejected and return their sizes, not leave them "queued"
			// in limbo forever. The successfully admitted prefix still counts
			// toward the arrival statistics.
			c.pending = batch[k:]
			c.fail(err)
			break
		}
		// Only a successful admit makes the job "scheduled": a rejected Add
		// must leave the record queued, not claim scheduling that never
		// happened.
		rec.State = StateScheduled
		c.note(obs.EventAdmit, rec.GID, &r.At, "")
		if !rec.Counted {
			rec.Counted = true
			native++
		}
	}
	if native > 0 {
		c.ArrivalBatches++
		c.BatchedArrivals += native
		c.LargestBatch = max(c.LargestBatch, native)
	}
	if len(c.pending) == 0 {
		c.decide()
	}
	return nil
}

// releasedBy refuses a record released after at, the time a transition
// takes it at: a live release is stamped from the clock the shard's engine
// catches up to before it admits or extracts, so only a damaged log has one
// (or a latched donor, whose engine no longer catches up).
func (rec *jobRecord) releasedBy(c *shardCore, what string, at exact.Q) error {
	if rec.Release.Cmp(at) > 0 {
		return fmt.Errorf("shard %d record %d released at %v, after the %s at %v", c.idx, rec.ID, rec.Release, what, at)
	}
	return nil
}

// recComplete logs one completion, the engine's output rather than an input.
// logged marks a record read back from the log: run has crossed its time,
// which ran the transition from step, so the logged record is only held to
// the completion that ran.
type recComplete struct {
	Shard  int     `json:"shard"`
	Local  int     `json:"local"`
	GID    int     `json:"gid"`
	At     exact.Q `json:"at"`
	logged bool
}

func (r *recComplete) head() (int, exact.Q, bool) { return r.Shard, r.At, true }

// apply is the complete transition, which step runs for every job the engine
// completed at the record's time: the job is done, and folded into the
// all-time aggregates and flow histograms, so later compaction of its record
// loses no statistics.
//
//divflow:locks requires=shard
func (r *recComplete) apply(c *shardCore) error {
	rec := c.records.get(r.Local)
	if at, ok := c.eng.Completion(r.Local); !ok || at.Cmp(r.At) != 0 || rec == nil || rec.GID != r.GID {
		return fmt.Errorf("shard %d did not complete local %d (job %d) at %v", c.idx, r.Local, r.GID, r.At)
	}
	if r.logged {
		return nil
	}
	c.wal.append(walTypeComplete, r)
	rec.State, rec.Completed = StateDone, r.At
	c.shiftBacklog(false, rec)
	flow := rec.Completed.Sub(rec.Release)
	wf := rec.Weight.Mul(flow)
	c.FlowTotals.Merge(shardlink.FlowTotals{DoneCount: 1, FlowSum: flow, MaxWF: wf, MaxStretch: flow.Quo(rec.Size)})
	observeFlow(&c.Flow, flow.Float64())
	if rec.Tenant != "" {
		ta := c.tenantFor(rec.Tenant)
		ta.Merge(shardlink.TenantTotals{Completed: 1, FlowSum: &flow, MaxWF: wf})
		observeFlow(&ta.WFlow, wf.Float64())
	}
	return nil
}

// recCompact logs one retention compaction (the horizon is derived from Now
// exactly as the live path derives it, but recording both keeps the document
// self-describing). released, which the transition fills, are the global IDs
// of the compacted records whose forwarding-table entries the router drops.
type recCompact struct {
	Shard    int     `json:"shard"`
	Now      exact.Q `json:"now"`
	Horizon  exact.Q `json:"horizon"`
	released []int
}

func (r *recCompact) head() (int, exact.Q, bool) { return r.Shard, r.Now, true }

// apply is the compact transition: the horizon, retention behind the
// record's now and above the last one, becomes the shard's; every record it
// passes is dropped.
//
//divflow:locks requires=shard
func (r *recCompact) apply(c *shardCore) error {
	if c.retention.Sign() == 0 {
		return fmt.Errorf("shard %d keeps every record", c.idx)
	}
	if want := r.Now.Sub(c.retention); r.Horizon.Cmp(want) != 0 {
		return fmt.Errorf("shard %d horizon %v, want now %v less retention %v = %v", c.idx, r.Horizon, r.Now, c.retention, want)
	}
	if r.Horizon.Cmp(*c.LastCompact) <= 0 {
		return fmt.Errorf("shard %d horizon %v is not above the last compaction %v", c.idx, r.Horizon, *c.LastCompact)
	}
	c.wal.append(walTypeCompact, r)
	// Fold the pre-compaction makespan into the high-water mark first:
	// dropping pieces must never move the reported whole-execution makespan
	// backwards.
	c.noteMakespan()
	horizon := r.Horizon
	c.LastCompact = &horizon
	before := c.CompactedJobs
	drop := func(id int) {
		rec := c.records.get(id)
		// Only the job's *current* owner releases the forwarding entry: a
		// record that is stolen but migrated onward describes a hop whose
		// entry already points at a later shard.
		if rec.Stolen && rec.State != StateMigrated {
			r.released = append(r.released, rec.GID)
		}
		c.records.drop(id)
		c.CompactedJobs++
	}
	for _, id := range c.eng.Compact(horizon) {
		drop(id)
	}
	keep := c.migratedIDs[:0]
	for _, id := range c.migratedIDs {
		if c.records.get(id).MigratedAt.Cmp(horizon) <= 0 {
			drop(id)
		} else {
			keep = append(keep, id)
		}
	}
	c.migratedIDs = keep
	if c.retired && c.historyEmpty() && c.mwf != nil {
		// The engine's jobs and pieces went with the records: the plan's
		// pieces are all a drained retired shard would still hold.
		c.mwf.InvalidatePlan()
	}
	if n := c.CompactedJobs - before; n > 0 {
		c.note(obs.EventCompact, -1, &horizon, "%d records dropped", n)
	}
	return nil
}

// recExtract logs the donor half of a migration: which records were reserved,
// at the donor's exact engine time, which fixes their remaining fractions,
// the donor's re-plan and the records' later compaction horizon. jobs, which
// the transition fills, are the extracted jobs, in the order Locals lists
// them.
type recExtract struct {
	Shard  int     `json:"shard"`
	At     exact.Q `json:"at"`
	Locals []int   `json:"locals"`
	jobs   []shardlink.MigratedJob
}

func (r *recExtract) head() (int, exact.Q, bool) { return r.Shard, r.At, true }

// apply is the extract transition: the listed records, each queued or live
// and not yet reserved, leave the engine and the pending queue, reserved at
// the record's time.
//
//divflow:locks requires=shard
func (r *recExtract) apply(c *shardCore) error {
	taken := make(map[int]bool, len(r.Locals))
	for _, local := range r.Locals {
		rec := c.records.get(local)
		switch {
		case rec == nil:
			return fmt.Errorf("shard %d has no record %d", c.idx, local)
		case taken[local] || rec.MigratedAt != nil || (rec.State != StateQueued && rec.State != StateScheduled):
			return fmt.Errorf("shard %d record %d is %s, not a queued or live job to extract", c.idx, local, rec.State)
		}
		// A latched donor's engine stopped short of the clock, and it still gives.
		if err := rec.releasedBy(c, "extract", r.At); err != nil && c.lastErr == nil {
			return err
		}
		taken[local] = true
	}
	c.wal.append(walTypeExtract, r)
	removedLive := false
	for _, local := range r.Locals {
		rec := c.records.get(local)
		if rec.State == StateScheduled {
			// Live: the engine hands back the exact unprocessed fraction.
			if rj, err := c.eng.Remove(local); err == nil {
				rec.Remaining = rj.Remaining
				removedLive = true
			}
		}
		// Every donor piece of the job ends by the extraction time — that,
		// not the later commit, fixes the record's compaction horizon.
		rec.MigratedAt = &r.At
		r.jobs = append(r.jobs, shardlink.MigratedJob{
			FromLocal: local, GID: rec.GID, Remaining: rec.Remaining, Counted: rec.Counted, Job: rec.Job,
		})
	}
	kept := c.pending[:0]
	for _, rec := range c.pending {
		if !taken[rec.ID] {
			kept = append(kept, rec)
		}
	}
	c.pending = kept
	// Re-plan immediately: the extraction invalidated the plan cache, and the
	// machines that ran the extracted jobs must not idle until the donor's
	// next wake-up.
	if removedLive && c.lastErr == nil {
		c.decide()
	}
	return nil
}

// recAdopt logs the destination half: the whole adoption message, so restore
// needs nothing from the donor. locals, which the transition fills, are the
// adopted jobs' local IDs, in message order.
type recAdopt struct {
	Shard int `json:"shard"`
	shardlink.AdmitArgs
	locals []int
}

func (r *recAdopt) head() (int, exact.Q, bool) { return r.Shard, r.At, false }

// apply is the adopt transition: every job of the message takes a fresh local
// slot, queued for admission, and its work joins the backlog. A message with
// no job, a malformed one (MigratedJob.Check) or one no machine hosts is
// refused, and so is a retired shard, and a latched one a steal would not
// help (a reshard does place on a stalled shard when no healthy one hosts the
// job); a closed one's shell refuses it first (Server.migrate).
//
//divflow:locks requires=shard
func (r *recAdopt) apply(c *shardCore) error {
	if len(r.Jobs) == 0 {
		return errors.New("adopt record carries no adoption message")
	}
	for i := range r.Jobs {
		if err := r.Jobs[i].Check(); err != nil {
			return fmt.Errorf("job %d: %w", r.Jobs[i].GID, err)
		}
		if !c.hosts(r.Jobs[i].Databanks) {
			return fmt.Errorf("job %d: no machine of shard %d hosts %v", r.Jobs[i].GID, c.idx, r.Jobs[i].Databanks)
		}
	}
	switch {
	case c.retired:
		return fmt.Errorf("shard %d is retired", c.idx)
	case r.Reason == migrateSteal && c.lastErr != nil:
		return fmt.Errorf("shard %d is stalled", c.idx)
	}
	c.wal.append(walTypeAdopt, r)
	r.locals = make([]int, len(r.Jobs))
	adopted := make([]*jobRecord, len(r.Jobs))
	for i := range r.Jobs {
		nrec := c.adoptRecord(&r.Jobs[i])
		adopted[i], r.locals[i] = nrec, nrec.ID
		if r.Reason == migrateReshard {
			c.ReshardIn++
			c.note(obs.EventMigrate, nrec.GID, nil, "resharded from shard %d", r.From)
		} else {
			c.StolenIn++
			c.note(obs.EventMigrate, nrec.GID, nil, "stolen from shard %d", r.From)
		}
	}
	c.shiftBacklog(true, adopted...)
	if r.Reason == migrateSteal {
		c.note(obs.EventSteal, -1, &r.At, "%d jobs from shard %d", len(adopted), r.From)
	}
	return nil
}

// recSettle logs the donor's commit or abort (kind) of the listed
// reservations.
type recSettle struct {
	Shard  int   `json:"shard"`
	Locals []int `json:"locals"`
	kind   string
}

func (r *recSettle) head() (int, exact.Q, bool) { return r.Shard, exact.Q{}, false }

// apply is the commit or abort transition of the listed records, each
// reserved by an extraction and not yet settled. A commit flips them to the
// migrated state — readable only through the forwarding table, which the
// router updated before committing, and compacted once the retention horizon
// passes their extraction — and the moved work finally leaves the donor's
// backlog. An abort returns them to the pending queue with their exact
// remaining fractions: re-admission conserves every piece of executed work,
// under the record's original local ID (the engine accepts a removed ID
// back).
//
//divflow:locks requires=shard
func (r *recSettle) apply(c *shardCore) error {
	recs := make([]*jobRecord, len(r.Locals))
	seen := make(map[int]bool, len(r.Locals))
	for i, local := range r.Locals {
		recs[i] = c.records.get(local)
		if seen[local] || recs[i] == nil || recs[i].MigratedAt == nil || recs[i].State == StateMigrated {
			return fmt.Errorf("shard %d record %d is not a reservation to settle", c.idx, local)
		}
		seen[local] = true
	}
	c.wal.append(r.kind, r)
	for _, rec := range recs {
		if r.kind == walTypeAbort {
			rec.State, rec.MigratedAt = StateQueued, nil // out of the engine until the loop re-admits it
			c.pending = append(c.pending, rec)
			continue
		}
		rec.State = StateMigrated
		c.migratedIDs = append(c.migratedIDs, rec.ID)
		// Only a reshard drains a retired shard; everything else is a steal.
		if c.retired {
			c.ReshardOut++
		} else {
			c.MigratedOut++
		}
	}
	if r.kind == walTypeCommit {
		c.shiftBacklog(false, recs...)
	}
	return nil
}

// walTopoShard is one member of a recTopo generation, in position order.
type walTopoShard struct {
	Idx        int             `json:"idx"`
	Kept       bool            `json:"kept,omitempty"`
	Machines   []model.Machine `json:"machines,omitempty"` // spawned shards only
	MachineIdx []int           `json:"machineIdx"`
}

// recTopo logs one structural reshard: everything needed to rebuild the new
// generation — appended before the migrations that reference its spawned
// shards, and before the topology publish. Its transition is
// Server.installGeneration.
type recTopo struct {
	Gen       int             `json:"gen"`
	Base      int             `json:"base"`
	Stride    int             `json:"stride"`
	Shards    []walTopoShard  `json:"shards"`
	Retired   []int           `json:"retired,omitempty"`
	Fleet     []model.Machine `json:"fleet"`
	ShardsCfg int             `json:"shardsCfg,omitempty"`
	At        exact.Q         `json:"at"`
}

func (r *recTopo) head() (int, exact.Q, bool) { return -1, r.At, false }

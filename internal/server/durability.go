package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"sort"
	"sync"
	"time"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
	"divflow/internal/sim"
	"divflow/internal/stats"
	"divflow/internal/wal"
)

// Durable crash recovery. With Config.WALDir set, every state mutation of the
// fleet is logged write-ahead: submissions (with their exact rational size,
// weight, and release), admission batches (the virtual time the loop admitted
// them at — the one input the executed trace is a deterministic function of),
// every step of a steal or reshard migration, topology-generation installs,
// and — as pure truncation markers — completions and compaction horizons.
// Periodic snapshots capture the whole fleet exactly (per-shard engine states
// with the live jobs' remaining fractions, the forwarding table, the
// generation list, all counters). Each one seals the log segment at its
// watermark, so the records it covers sit in whole segments; once it is
// written and verified, the log is truncated behind the older of the two
// snapshots kept on disk, so either one still restores. On startup the newest
// valid snapshot is loaded (torn ones skipped), and the WAL suffix past its
// watermark is replayed through the normal admission paths at the recorded
// virtual times — so the restored fleet's merged trace validates exactly and
// matches an uninterrupted run bit for bit. A restart decodes at most one
// snapshot interval of records the snapshot already covers.
//
// The failure policy is freeze-and-serve: the first WAL append, fsync, or
// snapshot failure latches an error, after which no further appends or
// snapshots happen — the on-disk state stays a consistent prefix of the
// execution — while the daemon keeps scheduling. GET /healthz reports the
// degraded state ("degraded", still HTTP 200).

// WAL record types.
const (
	walTypeSubmit   = "submit"
	walTypeAdmit    = "admit"
	walTypeComplete = "complete"
	walTypeTopo     = "topology"
	walTypeCompact  = "compact"
	// The steps of a migration, each logged by the shard-side function that
	// performs it, under the mu of the shard whose state it changes.
	walTypeExtract = "extract"
	walTypeAdopt   = "adopt"
	walTypeCommit  = "commit"
	walTypeAbort   = "abort"
)

// recSubmit logs one accepted submission: the job as model.Job writes itself
// (rationals as exact "p/q" strings), release stamped. SLA fields are absent
// in pre-deadline logs, which replay as deadline-free untracked traffic —
// exactly what they were.
type recSubmit struct {
	Shard int `json:"shard"` // creation index
	Local int `json:"local"`
	GID   int `json:"gid"`
	model.Job
}

// recAdmit logs one admission batch: the virtual time the loop admitted the
// listed pending jobs at. The executed trace is a deterministic function of
// these times, so replaying admissions at them reproduces it exactly.
type recAdmit struct {
	Shard  int     `json:"shard"`
	At     exact.Q `json:"at"`
	Locals []int   `json:"locals"`
}

// recComplete is a truncation marker: the completion replays for free when
// the engine is advanced across it, but the record moves the restored
// virtual-time watermark forward.
type recComplete struct {
	Shard int     `json:"shard"`
	Local int     `json:"local"`
	GID   int     `json:"gid"`
	At    exact.Q `json:"at"`
}

// recExtract logs the donor half of a migration: which records were reserved,
// at the donor's exact engine time. Replay catches the donor up to that time
// and reserves the same records, which reproduces the remaining fractions
// and — when a live job left — the donor's re-plan. The time also fixes the
// records' later compaction horizon.
type recExtract struct {
	Shard  int     `json:"shard"`
	At     exact.Q `json:"at"`
	Locals []int   `json:"locals"`
}

// recAdopt logs the destination half: the whole adoption message, so replay
// needs nothing from the donor.
type recAdopt struct {
	Shard int `json:"shard"`
	*shardlink.AdmitArgs
}

// recSettle logs the donor's commit or abort of the listed reservations.
type recSettle struct {
	Shard  int   `json:"shard"`
	Locals []int `json:"locals"`
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
// shards, and before the topology publish.
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

// recCompact logs one retention compaction (the horizon is derived from Now
// exactly as the live path derives it, but recording both keeps the document
// self-describing).
type recCompact struct {
	Shard   int     `json:"shard"`
	Now     exact.Q `json:"now"`
	Horizon exact.Q `json:"horizon"`
}

// durability is the server's write-ahead-log state: the open log, the
// append/snapshot counters, the latched error, and the snapshot trigger.
// Appends always happen under some shard's mu (or under reshardMu plus every
// shard mu, for topology records), with d.mu innermost — so a snapshot, which
// holds every shard mu, observes an exact watermark.
type durability struct {
	tel       *telemetry
	dir       string
	snapEvery int

	//divflow:locks name=dmu before=journal
	mu        sync.Mutex
	log       *wal.Log
	appends   int
	snapshots int
	replayed  int
	sinceSnap int
	err       error
	replaying bool
	// snapSeq is the watermark of the newest snapshot on disk, written or
	// restored from. The next snapshot at a later watermark leaves it the
	// older of the two kept, and truncates the log behind it.
	snapSeq uint64

	snapReq chan struct{}
	stop    chan struct{}
	once    sync.Once
}

// defaultSnapshotEvery is the snapshot cadence (appends between snapshots)
// when Config.SnapshotEvery is zero.
const defaultSnapshotEvery = 1024

// stats returns the durability counters for /v1/stats and /metrics (zero
// without a write-ahead log).
func (d *durability) stats() model.WALStats {
	if d == nil {
		return model.WALStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := model.WALStats{Appends: d.appends, Snapshots: d.snapshots, Replayed: d.replayed}
	if d.err != nil {
		w.Error = d.err.Error()
	}
	return w
}

// latchedErr returns the frozen WAL failure, nil while durable.
func (d *durability) latchedErr() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// latchLocked freezes durability at the first failure. Callers hold d.mu.
//
//divflow:locks requires=dmu
func (d *durability) latchLocked(err error) {
	if d.err != nil {
		return
	}
	d.err = err
	if d.tel.enabled {
		d.tel.walErrors.Inc()
		d.tel.event(obs.EventWALError, -1, -1, err.Error())
	}
}

// append logs one record. Failures latch; callers never see them — the
// scheduling paths must keep running when durability freezes.
func (d *durability) append(typ string, v any) {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.replaying || d.err != nil || d.log == nil {
		d.mu.Unlock()
		return
	}
	if _, err := d.log.Append(typ, v); err != nil {
		d.latchLocked(err)
		d.mu.Unlock()
		return
	}
	d.appends++
	d.sinceSnap++
	due := d.snapEvery > 0 && d.sinceSnap >= d.snapEvery
	d.mu.Unlock()
	if due {
		select {
		case d.snapReq <- struct{}{}:
		default:
		}
	}
}

// --- Snapshots ---------------------------------------------------------

// snapShard is one shard's full exported state: its spec, then what a run left on it.
type snapShard struct {
	shardlink.ShardSpec
	Retired bool `json:"retired,omitempty"`
	// RecordBase is the record index's base, the first retained local ID:
	// Records lists the slots from there (null = compacted). A document that
	// predates the key lists every slot from 0, leading nulls included.
	RecordBase int               `json:"recordBase,omitempty"`
	Records    []*jobRecord      `json:"records,omitempty"`
	PendingIDs []int             `json:"pendingIds,omitempty"`
	Engine     *sim.EngineState  `json:"engine,omitempty"`
	Plan       *sim.MWFPlanState `json:"plan,omitempty"`

	// The shard's ledger, as shard.ledger() copies it out: the two flow
	// histograms live in telemetry rather than the engine, and without them a
	// restored fleet would answer the /v1/stats and /v1/tenants P95 from
	// post-crash completions only.
	shardlink.ShardTotals
	legacyFreed
	Tenants shardlink.TenantLedger `json:"tenants,omitempty"`

	MigratedIDs []int   `json:"migratedIds,omitempty"`
	Backlog     exact.Q `json:"backlog"`
	LastErr     string  `json:"lastErr,omitempty"`
}

// legacyFreed is how older documents describe a freed tombstone: a retired
// shard whose history had compacted away, written without records, engine or
// plan, its counters frozen here. Only thaw reads it, and no entry writes it.
type legacyFreed struct {
	Freed           bool              `json:"freed,omitempty"`
	FrozenNow       exact.Q           `json:"frozenNow,omitzero"`
	FrozenCompleted int               `json:"frozenCompleted,omitempty"`
	FrozenDecisions int               `json:"frozenDecisions,omitempty"`
	FrozenAccepted  int               `json:"frozenAccepted,omitempty"`
	FrozenSolves    int               `json:"frozenSolves,omitempty"`
	FrozenCacheHits int               `json:"frozenCacheHits,omitempty"`
	FrozenSolver    stats.SolverTally `json:"frozenSolver,omitzero"`
}

// thaw rewrites a freed tombstone as the empty retired shard it stands for:
// the frozen figures become the engine's counters, the plan's, and the base
// of the record index, below which every local ID the shard issued was
// compacted (it issued one per accepted, stolen or resharded-in job).
func (ss *snapShard) thaw() {
	if !ss.Freed {
		return
	}
	ss.RecordBase = ss.FrozenAccepted + ss.StolenIn + ss.ReshardIn
	ss.Engine = &sim.EngineState{Now: ss.FrozenNow, Completed: ss.FrozenCompleted, Decisions: ss.FrozenDecisions}
	ss.Plan = &sim.MWFPlanState{Solves: ss.FrozenSolves, CacheHits: ss.FrozenCacheHits, Solver: ss.FrozenSolver}
}

// snapGen is one topology generation in a snapshot (shards by creation
// index, in position order).
type snapGen struct {
	Base   int   `json:"base"`
	Stride int   `json:"stride"`
	Shards []int `json:"shards"`
}

// topo rewrites generation g of the document as the record that installs it,
// created being the number of shards earlier generations made: a member none
// of them listed is spawned, on its own entry's machines, and retirement is
// part of the state the entries restore.
func (doc *snapDoc) topo(g, created int) (*recTopo, error) {
	r := &recTopo{Gen: g, Base: doc.Gens[g].Base, Stride: doc.Gens[g].Stride}
	for _, idx := range doc.Gens[g].Shards {
		if idx < 0 || idx >= len(doc.Shards) {
			return nil, fmt.Errorf("generation %d names unknown shard %d", g, idx)
		}
		ts := walTopoShard{Idx: idx, Kept: idx < created, MachineIdx: doc.Shards[idx].MachineIdx}
		if !ts.Kept {
			ts.Machines = doc.Shards[idx].Machines
		}
		r.Shards = append(r.Shards, ts)
	}
	return r, nil
}

// snapFwd is one forwarding-table entry.
type snapFwd struct {
	GID   int `json:"gid"`
	Shard int `json:"shard"`
	Local int `json:"local"`
}

// snapDoc is the whole fleet's snapshot document.
type snapDoc struct {
	Policy    string      `json:"policy"`
	ShardsCfg int         `json:"shardsCfg,omitempty"`
	Reshards  int         `json:"reshards,omitempty"`
	Gens      []snapGen   `json:"gens"`
	Forward   []snapFwd   `json:"forward,omitempty"`
	Shards    []snapShard `json:"shards"`
}

// exportShardLocked builds one shard's snapshot entry. Callers hold sh.mu.
//
//divflow:locks requires=shard
func exportShardLocked(sh *shard) snapShard {
	ss := snapShard{
		ShardSpec: shardlink.ShardSpec{
			Idx: sh.idx, Pos: sh.pos, Stride: sh.stride, GidBase: sh.gidBase, Gen: sh.gen,
			Machines: sh.machines, MachineIdx: append([]int(nil), sh.machineIdx...),
		},
		Retired:     sh.retired,
		Records:     make([]*jobRecord, len(sh.records.recs)),
		RecordBase:  sh.records.base,
		MigratedIDs: append([]int(nil), sh.migratedIDs...),
		Engine:      sh.eng.ExportState(),
		Backlog:     sh.route.Load().Backlog,
	}
	ss.ShardTotals, ss.Tenants = sh.ledger()
	for i, rec := range sh.records.recs {
		if rec != nil {
			ss.Records[i] = rec.clone()
		}
	}
	for _, rec := range sh.pending {
		ss.PendingIDs = append(ss.PendingIDs, rec.ID)
	}
	if sh.mwf != nil {
		ss.Plan = sh.mwf.ExportPlanState()
	}
	if sh.lastErr != nil {
		ss.LastErr = sh.lastErr.Error()
	}
	return ss
}

// Snapshot writes one fleet snapshot now (the same path the cadence-driven
// background snapshots take) and truncates the WAL behind the previous
// snapshot's watermark.
func (s *Server) Snapshot() error {
	s.reshardMu.Lock()
	err := ErrClosed
	if !s.closed.Load() {
		err = s.snapshotLocked()
	}
	s.reshardMu.Unlock()
	// A steal that found the fleet held for the cut was skipped, not queued:
	// wake the loops so an idle one asks again.
	for _, sh := range s.active() {
		_ = sh.link.Poke(shardlink.PokeArgs{})
	}
	return err
}

// snapshotLocked exports and writes one snapshot. Callers hold reshardMu (so
// no topology change is in flight); the export runs under the cut, which
// freezes every append source, so the watermark is exact, and the log is
// sealed there, so the next record starts a segment of its own. Syncing the
// sealed segment, marshaling and file I/O happen after the cut is released.
//
//divflow:locks requires=reshard
func (s *Server) snapshotLocked() error {
	d := s.dur
	if d == nil {
		return nil
	}
	if err := d.latchedErr(); err != nil {
		// Durability already froze: a snapshot of the diverged in-memory
		// state must never replace the consistent on-disk prefix.
		return err
	}
	doc := snapDoc{Policy: s.policyCfg, ShardsCfg: s.shardsCfg}
	var seq uint64
	var sealed *wal.Sealed
	var err error
	//divflow:locks requires=reshard,shard
	s.cut(func(all []*shard) {
		s.topoMu.RLock()
		doc.Reshards = len(s.gens) - 1
		for _, gen := range s.gens {
			sg := snapGen{Base: gen.base, Stride: gen.stride}
			for _, sh := range gen.shards {
				sg.Shards = append(sg.Shards, sh.idx)
			}
			doc.Gens = append(doc.Gens, sg)
		}
		for gid, loc := range s.forward {
			doc.Forward = append(doc.Forward, snapFwd{GID: gid, Shard: loc.sh.idx, Local: loc.local})
		}
		s.topoMu.RUnlock()
		sort.Slice(doc.Forward, func(a, b int) bool { return doc.Forward[a].GID < doc.Forward[b].GID })
		for _, sh := range all {
			doc.Shards = append(doc.Shards, exportShardLocked(sh))
		}
		d.mu.Lock()
		seq = d.log.LastSeq()
		sealed, err = d.log.Seal()
		d.mu.Unlock()
	})

	if err == nil {
		err = sealed.Close()
	}
	var payload []byte
	if err == nil {
		payload, err = json.Marshal(&doc)
	}
	if err == nil {
		err = wal.WriteSnapshot(d.dir, seq, payload)
	}
	if err == nil {
		// Read the snapshot back before truncating the log behind it: a write
		// torn by a crash (or disk fault) publishes a file whose CRC cannot
		// validate, and truncating on its strength would drop records the
		// fallback snapshot still needs.
		if gotSeq, _, ok := wal.LoadSnapshot(d.dir); !ok || gotSeq != seq {
			err = fmt.Errorf("snapshot at watermark %d failed verification after write", seq)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.latchLocked(fmt.Errorf("server: snapshot: %w", err))
		return d.err
	}
	// The previous snapshot is now the older of the two wal.WriteSnapshot
	// keeps: segments wholly at or below its watermark are folded into both,
	// and the log from there on stays so that either one restores. A snapshot
	// at the same watermark replaced the previous file, and the older one kept
	// is still the one the last truncation stopped at.
	if seq > d.snapSeq {
		if terr := d.log.TruncateBefore(d.snapSeq + 1); terr != nil {
			d.latchLocked(terr)
			return d.err
		}
		d.snapSeq = seq
	}
	d.snapshots++
	d.sinceSnap = 0
	if d.tel.enabled {
		d.tel.event(obs.EventSnapshot, -1, -1, fmt.Sprintf("watermark %d", seq))
	}
	return nil
}

// snapshotLoop is the cadence-driven snapshot goroutine: append sites signal
// it (non-blocking) every SnapshotEvery appends. It re-checks the count
// first: appends made while a snapshot was being written re-arm the signal
// before that snapshot resets the count, and must not fire a second one.
func (s *Server) snapshotLoop() {
	d := s.dur
	for {
		select {
		case <-d.stop:
			return
		case <-d.snapReq:
			d.mu.Lock()
			due := d.sinceSnap >= d.snapEvery
			d.mu.Unlock()
			if due {
				// A failure is latched and reported through /healthz.
				_ = s.Snapshot()
			}
		}
	}
}

// --- Restore ------------------------------------------------------------

// restoreState is what openWAL recovered from disk, handed to New's restore
// branch.
type restoreState struct {
	log     *wal.Log
	doc     *snapDoc // nil when no valid snapshot existed
	snapSeq uint64   // doc's watermark
	suffix  []wal.Record
	now     exact.Q // watermark virtual time of the restored state
	started time.Time
}

// openWAL loads the newest valid snapshot and the WAL suffix past its
// watermark. A torn snapshot or torn log tail is skipped/truncated by the
// wal package; a snapshot that fails to decode is an error (the disk state
// claims validity but cannot be interpreted — refusing to guess beats
// silently dropping history), and so is a log that does not continue the
// snapshot: a suffix that starts past the seq after the watermark, or a log
// that ends before the watermark, whose next append would reuse a covered seq.
func openWAL(dir string, fsync bool) (*restoreState, error) {
	//divflow:wallclock-ok recovery wall time only annotates the recovery-duration histogram; no Server clock exists yet while the WAL is being opened
	st := &restoreState{started: time.Now()}
	snapSeq, payload, haveSnap := wal.LoadSnapshot(dir)
	log, recs, err := wal.Open(dir, wal.Options{Fsync: fsync})
	if err != nil {
		return nil, err
	}
	last := log.LastSeq()
	if last < snapSeq {
		log.Close()
		return nil, fmt.Errorf("server: restore: the log ends at seq %d, before the snapshot watermark %d", last, snapSeq)
	}
	if haveSnap {
		var doc snapDoc
		if err := json.Unmarshal(payload, &doc); err != nil {
			log.Close()
			return nil, fmt.Errorf("server: restore: snapshot decode: %w", err)
		}
		st.doc, st.snapSeq = &doc, snapSeq
		for i := range doc.Shards {
			ss := &doc.Shards[i]
			ss.thaw()
			if ss.Engine != nil {
				st.advance(ss.Engine.Now)
			}
		}
	}
	for _, rec := range recs {
		if rec.Seq <= snapSeq {
			continue
		}
		st.suffix = append(st.suffix, rec)
		// A record dates itself by one of at, now or release; one that does
		// not decode dates nothing here, and replay reports it.
		var t struct {
			At      exact.Q `json:"at"`
			Now     exact.Q `json:"now"`
			Release exact.Q `json:"release"`
		}
		if json.Unmarshal(rec.Data, &t) == nil {
			st.advance(t.At)
			st.advance(t.Now)
			st.advance(t.Release)
		}
	}
	// wal.Open hands back a contiguous log, so the suffix is whole exactly
	// when it holds every seq past the watermark.
	if n := uint64(len(st.suffix)); n != last-snapSeq {
		log.Close()
		return nil, fmt.Errorf("server: restore: the log resumes at seq %d, the snapshot watermark is %d", last+1-n, snapSeq)
	}
	st.log = log
	return st, nil
}

// advance moves the watermark forward to t.
func (st *restoreState) advance(t exact.Q) {
	if t.Cmp(st.now) > 0 {
		st.now = t
	}
}

// hasState reports whether the disk held anything to restore.
func (st *restoreState) hasState() bool { return st.doc != nil || len(st.suffix) > 0 }

// validateLedger rejects a ledger that contradicts itself: a document intact
// on disk (CRC-valid) whose first read would divide by a count that has no
// sum, or print a maximum that is not there.
func validateLedger(totals *shardlink.ShardTotals, tenants shardlink.TenantLedger) error {
	if err := validateTotals("totals", *totals, totals.DoneCount, totals.Flow, totals.FlowSum, totals.MaxWF, totals.MaxStretch); err != nil {
		return err
	}
	for name, t := range tenants {
		if t == nil {
			return fmt.Errorf("tenant %q has no entry", name)
		}
		var sum exact.Q
		if t.FlowSum != nil {
			sum = *t.FlowSum
		}
		if err := validateTotals(fmt.Sprintf("tenant %q", name), *t, t.Completed, t.WFlow, sum, t.MaxWF); err != nil {
			return err
		}
	}
	return nil
}

// validateTotals checks one ledger struct: no count is negative, with done > 0
// every listed rational is positive (each is a sum or a maximum of flows,
// which are), and the histogram's Count is the sum of its slots.
func validateTotals(what string, ledger any, done int, hist *obs.HistogramSnapshot, rats ...exact.Q) error {
	for _, r := range rats {
		if done > 0 && r.Sign() <= 0 {
			return fmt.Errorf("%s: %d completed jobs without a flow sum or maximum", what, done)
		}
	}
	if hist != nil {
		var slots uint64
		for _, c := range hist.Counts {
			slots += c
		}
		if slots != hist.Count {
			return fmt.Errorf("%s: flow histogram counts %d observations over slots holding %d", what, hist.Count, slots)
		}
	}
	return negativeCount(what, reflect.ValueOf(ledger))
}

// negativeCount walks a ledger struct — nested structs and per-class maps
// included, so a counter added later is covered without being listed here —
// and reports the first negative count.
func negativeCount(path string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Int:
		if v.Int() < 0 {
			return fmt.Errorf("%s = %d", path, v.Int())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := negativeCount(path+"."+v.Type().Field(i).Name, v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if err := negativeCount(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value()); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadState fills a freshly built shard from its snapshot entry. The shard is
// private until the generation it belongs to is installed.
func (sh *shard) loadState(ss *snapShard) error {
	sh.retired = ss.Retired
	if ss.RecordBase < 0 {
		return fmt.Errorf("shard %d record base %d is negative", ss.Idx, ss.RecordBase)
	}
	sh.records.base = ss.RecordBase
	for _, sr := range ss.Records {
		if sr == nil {
			sh.records.add(nil)
			continue
		}
		if sr.Weight.Sign() <= 0 || sr.Size.Sign() <= 0 {
			return fmt.Errorf("record %d missing fields", sr.GID)
		}
		if sr.ID != sh.records.next() {
			return fmt.Errorf("shard %d record %d out of order", ss.Idx, sr.ID)
		}
		rec := sr.clone()
		rec.hosts = sh.hostMask(rec.Databanks)
		sh.records.add(rec)
	}
	for _, id := range ss.PendingIDs {
		rec := sh.records.get(id)
		if rec == nil {
			return fmt.Errorf("shard %d pending %d unknown", ss.Idx, id)
		}
		sh.pending = append(sh.pending, rec)
	}
	// Compaction dereferences every listed record's MigratedAt: a name that is
	// not a committed reservation would panic the shard's first compaction.
	for _, id := range ss.MigratedIDs {
		if rec := sh.records.get(id); rec == nil || rec.State != StateMigrated || rec.MigratedAt == nil {
			return fmt.Errorf("shard %d migrated %d is not a migrated reservation", ss.Idx, id)
		}
		sh.migratedIDs = append(sh.migratedIDs, id)
	}
	if ss.Engine == nil {
		return fmt.Errorf("shard %d has no engine state", ss.Idx)
	}
	if err := sh.eng.RestoreState(ss.Engine); err != nil {
		return fmt.Errorf("shard %d: %w", ss.Idx, err)
	}
	if sh.mwf != nil && ss.Plan != nil {
		sh.mwf.RestorePlanState(ss.Plan)
	}
	// The ledger arrives whole, and goes back where shard.ledger() gathered it
	// from: the histograms into telemetry, the backlog split into the
	// routing key, the rest into the shard's own totals and tenant entries.
	if err := validateLedger(&ss.ShardTotals, ss.Tenants); err != nil {
		return fmt.Errorf("shard %d: %w", ss.Idx, err)
	}
	totals := ss.ShardTotals.Clone()
	if totals.Flow != nil {
		if err := sh.obs.flow.Restore(*totals.Flow); err != nil {
			return fmt.Errorf("shard %d: %w", ss.Idx, err)
		}
		totals.Flow = nil
	}
	if totals.LastCompact == nil && sh.retention.Sign() > 0 {
		// A document that predates the field keeps the fresh shard's zero.
		totals.LastCompact = new(exact.Q)
	}
	sh.ShardTotals = totals
	route := shardlink.RouteInfoReply{Backlog: ss.Backlog, Err: ss.LastErr}
	for t, tt := range ss.Tenants.Clone() {
		if tt.Backlog.Sign() != 0 {
			if route.TenantBacklog == nil {
				route.TenantBacklog = make(map[string]exact.Q)
			}
			route.TenantBacklog[t] = tt.Backlog
		}
		if tt.WFlow != nil {
			if err := sh.obs.tenantWFlow(t).Restore(*tt.WFlow); err != nil { //divflow:emitmu-ok restore builds a private shard that is not yet published; no other goroutine can reach its mu
				return fmt.Errorf("shard %d tenant %q: %w", ss.Idx, t, err)
			}
		}
		tt.Backlog, tt.WFlow = exact.Q{}, nil
		// A tenant that only ever had migrated work here has a backlog and no
		// entry of its own.
		if tt.Submitted+tt.Completed+len(tt.ByClass) > 0 {
			sh.tenants[t] = tt
		}
	}
	if ss.LastErr != "" {
		sh.lastErr = errors.New(ss.LastErr)
	}
	sh.route.Store(&route)
	return nil
}

// restore rebuilds the server's whole topology from a snapshot document (or
// the fresh-start topology the caller built when none existed) and replays
// the WAL suffix through the normal admission paths. Called from New, before
// any loop starts, so it is single-threaded; the shard locks it takes are
// for the helpers' documented invariants.
func (s *Server) restore(st *restoreState) error {
	if st.doc != nil {
		// The policy is part of the recorded execution: replaying a lazy
		// online-mwf history through the preemptive one would "validate" into
		// a different run. Names compare resolved, so "" is DefaultPolicy.
		logged, err := NewPolicy(st.doc.Policy)
		if err != nil {
			return fmt.Errorf("server: restore: this build does not serve the snapshot's policy: %w", err)
		}
		if logged.Name() != s.policyName {
			return fmt.Errorf("server: restore: snapshot taken under policy %q, server configured with %q",
				logged.Name(), s.policyName)
		}
		if st.doc.ShardsCfg > 0 {
			s.shardsCfg = st.doc.ShardsCfg
		}
		for g := range st.doc.Gens {
			r, err := st.doc.topo(g, len(s.all))
			if err == nil {
				_, _, err = s.installGeneration(r, st.doc.Shards, false)
			}
			if err != nil {
				return fmt.Errorf("server: restore: %w", err)
			}
		}
		if len(s.gens) == 0 || len(s.all) != len(st.doc.Shards) {
			return fmt.Errorf("server: restore: snapshot holds %d shards, its %d generations name %d", len(st.doc.Shards), len(s.gens), len(s.all))
		}
		for _, fw := range st.doc.Forward {
			sh, err := s.shardByIdx(fw.Shard)
			if err != nil {
				return fmt.Errorf("server: restore: forwarding entry: %w", err)
			}
			s.forward[fw.GID] = fwdLoc{sh: sh, local: fw.Local}
		}
	}
	if err := s.replay(st.suffix); err != nil {
		return err
	}
	s.finishMigrations()
	s.repairRetired(st.now)
	return nil
}

// shardByIdx resolves a creation index during restore: installGeneration
// admits a spawned shard only at the next index, so s.all is indexed by it.
func (s *Server) shardByIdx(idx int) (*shard, error) {
	if idx < 0 || idx >= len(s.all) {
		return nil, fmt.Errorf("unknown shard %d", idx)
	}
	return s.all[idx], nil
}

// replay re-executes the WAL suffix through the normal admission paths at
// the recorded virtual times. The write-ahead hooks are gated off for its
// duration, so replay never re-logs what the log already holds.
func (s *Server) replay(recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.dur.mu.Lock()
	s.dur.replaying = true
	s.dur.mu.Unlock()
	defer func() {
		s.dur.mu.Lock()
		s.dur.replaying = false
		s.dur.replayed = len(recs)
		s.dur.mu.Unlock()
	}()
	for _, rec := range recs {
		var err error
		switch rec.Type {
		case walTypeSubmit:
			err = replayAs(rec, s.replaySubmit)
		case walTypeAdmit:
			err = replayAs(rec, s.replayAdmit)
		case walTypeComplete:
			err = replayAs(rec, s.replayComplete)
		case walTypeExtract:
			err = replayAs(rec, s.replayExtract)
		case walTypeAdopt:
			err = replayAs(rec, s.replayAdopt)
		case walTypeCommit, walTypeAbort:
			err = replayAs(rec, func(r *recSettle) error { return s.replaySettle(r, rec.Type == walTypeCommit) })
		case walTypeTopo:
			err = replayAs(rec, s.replayTopo)
		case walTypeCompact:
			err = replayAs(rec, s.replayCompact)
		default:
			err = fmt.Errorf("unknown record type %q", rec.Type)
		}
		if err != nil {
			return fmt.Errorf("server: replay: record %d (%s): %w", rec.Seq, rec.Type, err)
		}
	}
	return nil
}

// replayAs decodes one record's payload as an R and applies it.
func replayAs[R any](rec wal.Record, apply func(*R) error) error {
	var r R
	if err := json.Unmarshal(rec.Data, &r); err != nil {
		return err
	}
	return apply(&r)
}

func (s *Server) replaySubmit(r *recSubmit) error {
	sh, err := s.shardByIdx(r.Shard)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.records.next() != r.Local {
		return fmt.Errorf("shard %d expects local %d, record says %d", sh.idx, sh.records.next(), r.Local)
	}
	if r.Release == nil {
		return fmt.Errorf("submit %d missing its release", r.GID)
	}
	if err := r.Job.CheckSubmission(); err != nil {
		return fmt.Errorf("submit %d: %w", r.GID, err)
	}
	rec := &jobRecord{ID: r.Local, GID: r.GID, State: StateQueued, Job: shardlink.JobOf(r.Job)}
	if !sh.enqueue(rec, "replayed") {
		return fmt.Errorf("submit %d: no machine of shard %d hosts %v", r.GID, sh.idx, r.Databanks)
	}
	return nil
}

func (s *Server) replayAdmit(r *recAdmit) error {
	sh, err := s.shardByIdx(r.Shard)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.pending) != len(r.Locals) {
		return fmt.Errorf("shard %d has %d pending, admit record lists %d", sh.idx, len(sh.pending), len(r.Locals))
	}
	for i, rec := range sh.pending {
		if rec.ID != r.Locals[i] {
			return fmt.Errorf("shard %d pending[%d] = %d, admit record says %d", sh.idx, i, rec.ID, r.Locals[i])
		}
	}
	// The same admission path the live loop runs, at the recorded virtual
	// time: catch the engine up, then admit the batch. Completions crossed on
	// the way replay implicitly.
	if _, ok := sh.catchUpTo(r.At); !ok {
		return nil // the original run latched here too; the error is restored
	}
	sh.admitAll(r.At)
	return nil
}

func (s *Server) replayComplete(r *recComplete) error {
	sh, err := s.shardByIdx(r.Shard)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Advancing across the completion's exact event time executes it through
	// step(): the record itself carries no state the engine does not rederive.
	sh.catchUpTo(r.At)
	return nil
}

func (s *Server) replayCompact(r *recCompact) error {
	sh, err := s.shardByIdx(r.Shard)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.catchUpTo(r.Now); !ok {
		return nil
	}
	sh.compact(r.Now)
	return nil
}

// The migration records replay through the very functions that logged them
// (the write-ahead hooks are off), each under its one shard's mu.

func (s *Server) replayExtract(r *recExtract) error {
	sh, err := s.shardByIdx(r.Shard)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, local := range r.Locals {
		if sh.records.get(local) == nil {
			return fmt.Errorf("shard %d has no record %d", sh.idx, local)
		}
	}
	// The donor's engine time at the extraction is part of the recorded
	// execution: it sets the remaining fractions and migratedAt.
	sh.catchUpTo(r.At)
	sh.reserve(r.Locals)
	return nil
}

func (s *Server) replayAdopt(r *recAdopt) error {
	sh, err := s.shardByIdx(r.Shard)
	if err != nil {
		return err
	}
	if r.AdmitArgs == nil {
		return errors.New("adopt record carries no adoption message")
	}
	rep := sh.admitMigrated(*r.AdmitArgs)
	if !rep.Accepted {
		return fmt.Errorf("shard %d refuses the recorded adoption", sh.idx)
	}
	s.forwardTo(sh, r.Jobs, rep.Locals)
	return nil
}

func (s *Server) replaySettle(r *recSettle, commit bool) error {
	sh, err := s.shardByIdx(r.Shard)
	if err != nil {
		return err
	}
	if commit {
		sh.commitExtract(shardlink.CommitArgs{Locals: r.Locals})
	} else {
		sh.abortExtract(shardlink.AbortArgs{Locals: r.Locals})
	}
	return nil
}

// replayTopo reinstalls a logged generation. Its base must clear every ID the
// replayed shards issued before it, as it did live: a snapshot restore is not
// held to this, its shards being loaded with records issued under later
// generations too.
func (s *Server) replayTopo(r *recTopo) error {
	if next := s.nextBase(); r.Base < next {
		return fmt.Errorf("generation %d: based at %d, below %d, the next ID its predecessor would issue", r.Gen, r.Base, next)
	}
	_, _, err := s.installGeneration(r, nil, false)
	return err
}

// finishMigrations settles every migration a crash cut in half: its reserved
// records — extracted, neither committed nor aborted — are still on the
// donor. A reservation whose job a destination already adopted (the
// forwarding table names another shard) is committed; one nobody adopted is
// aborted, and the donor keeps the job. The write-ahead hooks are live again,
// so the settlement itself is durable.
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
		sh.mu.Unlock()
		sh.commitExtract(shardlink.CommitArgs{Locals: adopted})
		sh.abortExtract(shardlink.AbortArgs{Locals: orphaned})
	}
}

// repairRetired finishes an interrupted reshard: a crash after the topology
// record leaves queued or live jobs on retired shards. They are drained
// through the normal exchange — with the write-ahead hooks live again, so the
// repair itself is durable — using the same least-residual-work placement the
// reshard would have used, in the same order, so the repaired run matches the
// uninterrupted one.
func (s *Server) repairRetired(now exact.Q) {
	place := newPlacement(s.gens[len(s.gens)-1].shards)
	for _, donor := range s.all {
		// Catch the donor up to the restored virtual time before extracting:
		// the lost extract record is what carried the original donor's
		// catch-up to the reshard time, so without this the work it executed
		// since its last replayed record would be retroactively discarded and
		// the repaired remainings would not match the uninterrupted run's. A
		// donor whose history compacted away has nothing to catch up or give.
		donor.mu.Lock()
		drain := donor.retired && !donor.historyEmpty()
		if drain && donor.lastErr == nil {
			donor.catchUpTo(now)
		}
		donor.mu.Unlock()
		if drain {
			s.migrate(donor, shardlink.ExtractArgs{All: true}, migrateReshard, place.pick)
		}
	}
}

// RestoredNow returns the virtual time the fleet was restored at (zero for a
// fresh start or a server without a WAL).
func (s *Server) RestoredNow() *big.Rat { return s.restoredNow.Rat() }

// ReplayedRecords returns how many WAL records the last startup replayed.
func (s *Server) ReplayedRecords() int { return s.dur.stats().Replayed }

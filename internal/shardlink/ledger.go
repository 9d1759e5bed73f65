package shardlink

import (
	"divflow/internal/exact"
	"divflow/internal/obs"
)

// The ledger: what a shard counts. Each thing has one struct here, held by
// the shard, embedded in the snapshot document (the JSON names are the
// snapshot's) and carried whole by StatsSnapshot; every other holder copies
// it with Clone and every fleet-wide figure comes from Merge. The rationals
// are exact.Q values, so a copy shares none that can change; a zero one left
// out of a document reads back as the zero it was. The few a document writes
// even at zero, and leaves out only while unset, are pointers to values that
// nothing writes through. A histogram that is nil counts as empty.

// FlowTotals is the completed-job ledger the paper's objective is read off:
// Σ (C_j − r_j), max w_j (C_j − r_j) and max stretch over every job that
// finished, accumulated at completion time so compaction can forget the
// records without losing the all-time aggregates.
type FlowTotals struct {
	DoneCount  int     `json:"doneCount,omitempty"`
	FlowSum    exact.Q `json:"flowSum"`
	MaxWF      exact.Q `json:"maxWF,omitzero"`
	MaxStretch exact.Q `json:"maxStretch,omitzero"`
	// Flow is the completed-flow histogram backing the P95 estimate, nil
	// while nothing completed. The shard's ledger holds the live counts, which
	// the complete transition observes in place; /metrics copies them.
	Flow *obs.HistogramSnapshot `json:"flow,omitempty"`
}

// Clone returns t sharing no histogram counts with it.
func (t FlowTotals) Clone() FlowTotals {
	t.Flow = mergeHist(nil, t.Flow)
	return t
}

// Merge folds another shard's completed jobs (or one more completion) into t.
func (t *FlowTotals) Merge(o FlowTotals) {
	t.DoneCount += o.DoneCount
	t.FlowSum = t.FlowSum.Add(o.FlowSum)
	t.MaxWF = maxQ(t.MaxWF, o.MaxWF)
	t.MaxStretch = maxQ(t.MaxStretch, o.MaxStretch)
	t.Flow = mergeHist(t.Flow, o.Flow)
}

// ShardTotals is a shard's durable scalar state: everything a snapshot must
// carry that is neither a record, a queue, nor the engine.
type ShardTotals struct {
	ArrivalBatches  int `json:"arrivalBatches,omitempty"`
	BatchedArrivals int `json:"batchedArrivals,omitempty"`
	LargestBatch    int `json:"largestBatch,omitempty"`
	StolenIn        int `json:"stolenIn,omitempty"`    // jobs migrated here by work stealing
	MigratedOut     int `json:"migratedOut,omitempty"` // jobs stolen away from here
	ReshardIn       int `json:"reshardIn,omitempty"`   // jobs migrated here by a live reshard
	ReshardOut      int `json:"reshardOut,omitempty"`  // jobs a live reshard migrated away from here

	FlowTotals

	// LastCompact is the horizon of the last compaction: zero on a shard
	// with retention until its first one, unset on a shard without.
	LastCompact   *exact.Q `json:"lastCompact,omitempty"`
	CompactedJobs int      `json:"compactedJobs,omitempty"`
	// MakespanHW is the high-water mark of the executed trace's makespan,
	// folded in before every compaction (unset until the first): Engine.Compact
	// drops old pieces, so the makespan recomputed from the retained trace
	// alone would move backwards (to zero once everything is compacted).
	MakespanHW *exact.Q `json:"makespanHW,omitempty"`

	// Panics counts the panics the shard's panic barrier caught.
	Panics int `json:"panics,omitempty"`
}

// Clone returns t sharing no histogram counts with it: a snapshot is
// marshaled, and a stats reply shipped, after the shard's mu is released,
// while the loop keeps adding into the live totals.
func (t ShardTotals) Clone() ShardTotals {
	t.FlowTotals = t.FlowTotals.Clone()
	return t
}

// TenantTotals is one tenant's all-time accounting on one shard (or, merged,
// on the fleet), folded in at submission and completion time like FlowTotals.
type TenantTotals struct {
	// Submitted counts birth submissions (migrations excluded, so the fleet
	// sum sees every job once), Completed completions on this shard; FlowSum
	// and MaxWF aggregate those as FlowTotals does. Every entry the shard
	// keeps has a FlowSum, zero until a completion; a copy that names a tenant
	// only for its backlog here has none, and the document leaves it out.
	Submitted int      `json:"submitted,omitempty"`
	Completed int      `json:"completed,omitempty"`
	FlowSum   *exact.Q `json:"flowSum,omitempty"`
	MaxWF     exact.Q  `json:"maxWF,omitzero"`
	// ByClass counts birth submissions per SLA class.
	ByClass map[string]int `json:"byClass,omitempty"`
	// WFlow is the tenant's weighted-flow histogram (the per-tenant P95),
	// live in the shard's ledger like FlowTotals.Flow, and Backlog its exact
	// residual work, which on the live shard sits in the routing-side backlog
	// split: a copy of the ledger carries it here.
	WFlow   *obs.HistogramSnapshot `json:"wflow,omitempty"`
	Backlog exact.Q                `json:"backlog,omitzero"`
}

// Clone returns t sharing no map or histogram counts with it.
func (t TenantTotals) Clone() TenantTotals {
	var c TenantTotals
	c.Merge(t)
	return c
}

// Merge folds the same tenant's accounting on another shard (or one more
// submission or completion) into t.
func (t *TenantTotals) Merge(o TenantTotals) {
	t.Submitted += o.Submitted
	t.Completed += o.Completed
	if o.FlowSum != nil {
		sum := *o.FlowSum
		if t.FlowSum != nil {
			sum = t.FlowSum.Add(sum)
		}
		t.FlowSum = &sum
	}
	t.MaxWF = maxQ(t.MaxWF, o.MaxWF)
	if len(o.ByClass) > 0 && t.ByClass == nil {
		t.ByClass = make(map[string]int, len(o.ByClass))
	}
	for class, n := range o.ByClass {
		t.ByClass[class] += n
	}
	t.WFlow = mergeHist(t.WFlow, o.WFlow)
	t.Backlog = t.Backlog.Add(o.Backlog)
}

// TenantLedger is a shard's (or the fleet's) tenant accounting, keyed by
// tenant name; untracked traffic is absent.
type TenantLedger map[string]*TenantTotals

// Clone returns a deep copy of l, never nil.
func (l TenantLedger) Clone() TenantLedger {
	c := make(TenantLedger, len(l))
	c.Merge(l)
	return c
}

// Merge folds another shard's ledger into l, which must not be nil.
func (l TenantLedger) Merge(o TenantLedger) {
	for name, t := range o {
		if l[name] == nil {
			l[name] = new(TenantTotals)
		}
		l[name].Merge(*t)
	}
}

// maxQ returns the larger of the two.
func maxQ(a, b exact.Q) exact.Q {
	if b.Cmp(a) > 0 {
		return b
	}
	return a
}

// mergeHist folds src's counts into dst, allocating it on first use.
func mergeHist(dst, src *obs.HistogramSnapshot) *obs.HistogramSnapshot {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = new(obs.HistogramSnapshot)
	}
	dst.Merge(*src)
	return dst
}

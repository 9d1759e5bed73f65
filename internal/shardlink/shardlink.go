// Package shardlink defines the transport-agnostic boundary between the
// divflowd router and its scheduling shards: every operation the router may
// ask of a shard, as a typed request/response message pair. The server
// package's link carries them over two transports pinned equivalent by the
// trace-exact test suite — in process, calling the shard's handlers
// directly, and net/rpc, running the same handlers behind a loopback pipe and
// serializing every message with gob, so every message is held to what a
// byte stream can carry.
//
// The message set is deliberately closed over wire-safe types: exact
// rationals (exact.Q values, which gob and JSON carry as the exact "n/d" text
// a *big.Rat writes), the model wire structs, schedule pieces, and histogram
// snapshots all cross process boundaries without rounding. A link
// is pinned to one shard at construction, so a transport handler can address
// (and lock) only its own shard. A migration is no message: the router moves
// a job holding the donor and its destinations together, and only its
// adoption, the write-ahead adopt record's payload (AdmitArgs), is written
// here.
package shardlink

import (
	"fmt"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
)

// Transport names, used as the metric label of the per-transport call
// counters and the RPC latency histogram.
const (
	TransportInproc = "inproc"
	TransportRPC    = "rpc"
)

// Submit outcomes. Transports flatten errors to strings, so the router's
// control flow (retry on retired, propagate closed, reject no-host) keys on
// a closed outcome enum instead of error identity.
const (
	OutcomeOK       = "ok"       // accepted; GID carries the global ID
	OutcomeRetired  = "retired"  // shard retired by a racing reshard: re-route
	OutcomeClosed   = "closed"   // server shutting down
	OutcomeNoHost   = "nohost"   // refused: no machine hosts the databanks, or a malformed job (Err says which)
	OutcomeDeadline = "deadline" // strict admission: the deadline is infeasible
	OutcomeStalled  = "stalled"  // strict admission: the shard could not catch up to check the deadline
)

// Admission modes a shard runs deadline checks under (InstallArgs.Admission
// and the server's -admission flag). Strict rejects infeasible deadlines
// with the exact certificate; advisory admits them but still reports the
// certificate; off skips the feasibility LP entirely (deadlines are carried
// but never checked).
const (
	AdmissionStrict   = "strict"
	AdmissionAdvisory = "advisory"
	AdmissionOff      = "off"
)

// SubmitArgs asks the shard to accept one job, stamping its flow origin
// (release) at the shard's current clock reading. The shard validates the job
// itself (model.Job.CheckSubmission: size and weight > 0, a deadline > 0 when
// set) and refuses a malformed one with OutcomeNoHost and the reason in Err:
// the message may come from any caller of the link, not only a router that
// already checked it. A job carrying a deadline is then run
// through the deadline-feasibility LP against the shard's residual workload
// (unless the shard was installed with AdmissionOff).
type SubmitArgs struct {
	Job model.Job
}

// SubmitReply reports the accepted job's wire-visible global ID, or why the
// submission was refused. Admission carries the exact feasibility
// certificate whenever the check ran — on accepts and on OutcomeDeadline
// rejects (where it names the counter-offer deadline).
type SubmitReply struct {
	GID       int
	Outcome   string
	Err       string // detail for OutcomeNoHost
	Admission *model.AdmissionCertificate
}

// JobStatusArgs reads one shard-local record by its local slot and the
// global ID the caller resolved it from (the shard cross-checks the two: a
// stolen record occupies a slot whose arithmetic encoding belongs to a
// different global ID).
type JobStatusArgs struct {
	Local int
	GID   int
}

// JobStatusReply mirrors shard.jobStatus: Known=false answers are either
// definitive (unknown/compacted) or, with Migrated=true, retryable — the job
// left for another shard and the caller should chase the forwarding table.
type JobStatusReply struct {
	Status   model.JobStatus
	Known    bool
	Migrated bool
}

// ScheduleArgs windows the shard's executed trace to pieces ending after
// Since (zero keeps everything: no piece ends at time zero).
type ScheduleArgs struct {
	Since exact.Q
}

// ScheduleReply is one shard's deep-copied trace window, with machine
// indices and job IDs already translated to fleet/global space.
type ScheduleReply struct {
	Pieces   []schedule.Piece
	Now      exact.Q
	Makespan exact.Q
}

// StatsArgs requests the shard's stats snapshot.
type StatsArgs struct{}

// StatsSnapshot is one shard's answer to a fleet read (GET /v1/stats,
// /v1/tenants, /metrics): the wire breakdown of its live state plus its
// ledger, copied whole (ledger.go). Every field is exported so the snapshot
// crosses the RPC transport intact.
type StatsSnapshot struct {
	Wire model.ShardStats
	Now  exact.Q
	// Totals is the shard's scalar ledger; the router merges its FlowTotals
	// into the fleet-wide flow summaries and P95.
	Totals ShardTotals
	// BacklogF is the float approximation of the exact backlog, for the
	// divflow_backlog_work gauge.
	BacklogF float64
	// Tenants is the shard's per-tenant ledger; the router merges these into
	// GET /v1/tenants and the per-tenant metric families.
	Tenants TenantLedger
}

// RouteInfoArgs requests the routing key.
type RouteInfoArgs struct{}

// RouteInfoReply is everything the router's placement decision needs: the
// shard's exact residual backlog and its latched error text ("" while
// healthy). Shard-side it is the value the shard last published, read without
// a lock, so routing never waits behind an in-flight exact solve; a reply and
// its map are never written again, in-process callers included.
type RouteInfoReply struct {
	Backlog exact.Q
	Err     string
	// TenantBacklog is the shard's exact residual work per tenant (zero
	// backlogs omitted): the router sums it across shards for the
	// weighted-fairness quota check on the submit path.
	TenantBacklog map[string]exact.Q
}

// PokeArgs wakes the shard's loop if it is sleeping (steal re-check,
// timer re-arm after a migration).
type PokeArgs struct{}

// PokeReply is empty.
type PokeReply struct{}

// Job is a job as a shard holds it: model.Job's fields, its rationals exact.Q
// values. The JSON names, order and omissions are model.Job's, so a record or
// message carrying a Job writes exactly the bytes one carrying a model.Job
// did. On a shard Size and Weight are positive and a zero Deadline is none.
type Job struct {
	Name      string   `json:"name,omitempty"`
	Release   exact.Q  `json:"release"`
	Weight    exact.Q  `json:"weight"`
	Size      exact.Q  `json:"size,omitzero"`
	Databanks []string `json:"databanks,omitempty"`
	Deadline  exact.Q  `json:"deadline,omitzero"`
	Tenant    string   `json:"tenant,omitempty"`
	SLAClass  string   `json:"slaClass,omitempty"`
}

// JobOf converts a submitted job, once, where it enters a shard. The
// databank list is shared: nothing writes to it.
func JobOf(j model.Job) Job {
	return Job{
		Name: j.Name, Release: exact.FromRat(j.Release), Weight: exact.FromRat(j.Weight),
		Size: exact.FromRat(j.Size), Databanks: j.Databanks, Deadline: exact.FromRat(j.Deadline),
		Tenant: j.Tenant, SLAClass: j.SLAClass,
	}
}

// MigratedJob is one job moving in a migration: the job itself (original
// flow origin and SLA fields included — a migrated deadline still binds, and
// tenant accounting follows the work), the global ID it keeps, the exact
// remaining fraction, plus the donor-side local slot the commit/abort key on.
// The JSON names are the write-ahead log's: the destination logs the adoption
// as it took it.
type MigratedJob struct {
	FromLocal int     `json:"fromLocal"`          // donor-side local slot (reserve bookkeeping)
	GID       int     `json:"gid"`                // wire-visible global ID; survives the move
	Remaining exact.Q `json:"remaining,omitzero"` // exact unprocessed fraction at extraction; zero = whole
	Counted   bool    `json:"counted,omitempty"`  // arrival statistics already counted this job somewhere
	Job
}

// Check reports why a shard cannot adopt the job: the conditions
// model.Job.CheckSubmission puts on a submission (size and weight > 0, a
// deadline > 0 when set), a release that is not negative, and a remaining
// fraction that is zero (the whole job) or in (0, 1]. An adoption also comes
// back from the write-ahead log, which is outside input, so the destination
// checks before it logs or adopts anything.
func (mj *MigratedJob) Check() error {
	switch {
	case mj.Size.Sign() <= 0:
		return fmt.Errorf("shardlink: migrated job %d needs size > 0", mj.GID)
	case mj.Weight.Sign() <= 0:
		return fmt.Errorf("shardlink: migrated job %d needs weight > 0", mj.GID)
	case mj.Deadline.Sign() < 0:
		return fmt.Errorf("shardlink: migrated job %d needs deadline > 0", mj.GID)
	case mj.Release.Sign() < 0:
		return fmt.Errorf("shardlink: migrated job %d needs release >= 0", mj.GID)
	case mj.Remaining.Sign() < 0 || mj.Remaining.Cmp(exact.Int(1)) > 0:
		return fmt.Errorf("shardlink: migrated job %d needs remaining in (0, 1], got %v", mj.GID, mj.Remaining)
	}
	return nil
}

// AdmitArgs is an adoption: the extracted jobs one destination shard takes,
// as its write-ahead adopt record carries them. Reason ("steal" or "reshard")
// selects which migration counter the destination bumps; a steal is refused
// by a destination with a latched scheduling error. From and At name the
// donor and date the move, so the destination's journal needs nothing else.
type AdmitArgs struct {
	Jobs   []MigratedJob `json:"jobs"`
	Reason string        `json:"reason"`
	From   int           `json:"from"` // the donor's creation index
	At     exact.Q       `json:"at"`   // the donor's exact engine time at the extraction
}

// ShardSpec is one shard's identity, and the one form it is written in: the
// server's shard constructor takes it inside InstallArgs, a snapshot entry
// embeds it (the JSON names are the snapshot's), and a member of a
// write-ahead topology record resolves to it.
type ShardSpec struct {
	Idx int `json:"idx"` // creation index, unique for the life of the fleet
	// A global ID born on the shard is GidBase + local*Stride + Pos: Stride
	// is its generation's shard count and Pos its position there.
	Pos     int `json:"pos"`
	Stride  int `json:"stride"`
	GidBase int `json:"gidBase"`
	Gen     int `json:"gen"` // newest topology generation the shard belongs (or belonged) to
	// Machines is the shard's slice of the fleet, in fleet order; MachineIdx
	// maps each to its index in the platform document (same length).
	Machines   []model.Machine `json:"machines"`
	MachineIdx []int           `json:"machineIdx"`
}

// InstallArgs provisions one shard: its spec, policy, retention and admission
// mode. The server builds every shard from this message — at startup, on a
// reshard, and when a log or snapshot is replayed — and validates all of it:
// an unknown policy or admission mode, a machine without a positive speed,
// MachineIdx not matching Machines, Stride < 1 or Pos outside it are errors.
type InstallArgs struct {
	ShardSpec
	Policy    string
	Retention exact.Q // zero: keep everything
	Admission string  // deadline-admission mode ("" defaults to strict)
}

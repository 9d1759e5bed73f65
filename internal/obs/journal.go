package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event types emitted by the divflowd scheduling layer. The journal itself
// is type-agnostic; these constants are the shared vocabulary between the
// emitters in internal/server and consumers of GET /v1/events.
const (
	EventSubmit       = "submit"             // a job was accepted onto a shard
	EventAdmit        = "admit"              // the shard loop admitted a queued job
	EventSolve        = "solve"              // an inner exact residual solve settled
	EventPlanCacheHit = "plan-cache-hit"     // a decision point was served from the cached plan
	EventSteal        = "steal"              // an idle shard migrated work from a donor
	EventMigrate      = "migrate"            // one job moved between shards (steal or reshard)
	EventReshard      = "reshard-generation" // a structural reshard advanced the topology
	EventCompact      = "compact"            // retention dropped executed history
	EventReject       = "reject"             // a submission was refused, or shutdown drained a queued job
	EventShardStall   = "shard-stall"        // a shard latched a scheduling error
	EventShardPanic   = "shard-panic"        // a shard loop panicked; the supervisor latched it
	EventWALError     = "wal-error"          // the write-ahead log latched a failure; durability frozen
	EventSnapshot     = "snapshot"           // a fleet snapshot was written (WAL truncated behind it)
	EventRestore      = "restore"            // startup restored state from snapshot + WAL replay
)

// Event is one structured scheduling event. Every event carries both clocks:
// Wall is the real time the event was journaled (Unix nanoseconds) and VTime
// the exact virtual/engine time it describes (big.Rat notation), because the
// service runs equally on a wall clock in production and a virtual clock in
// tests and simulation-speed load runs.
type Event struct {
	// Seq is the journal-assigned strictly increasing sequence number; the
	// cursor for GET /v1/events?since=.
	Seq  int64  `json:"seq"`
	Wall int64  `json:"wall"`
	Type string `json:"type"`
	// Shard is the creation index of the shard the event happened on, -1 for
	// server-level events; Gen the topology generation it happened under.
	Shard int `json:"shard"`
	Gen   int `json:"gen"`
	// GID is the wire-visible global job ID for job-scoped events, -1
	// otherwise.
	GID    int    `json:"gid"`
	VTime  string `json:"vtime,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Journal is a bounded ring buffer of events plus an optional NDJSON sink.
// Appends take one short mutex (no allocation beyond the sink's encoder once
// the ring has grown to its capacity — an idle server holds only what it
// journaled), so the scheduling hot paths can journal without noticeable
// cost; once the ring is full the oldest events are overwritten and readers
// paging through GET /v1/events see the dropped count.
type Journal struct {
	//divflow:locks name=journal
	mu sync.Mutex
	// buf grows on demand up to capacity events, then wraps: event seq sits
	// at seq % capacity.
	buf      []Event
	capacity int
	next     int64 // seq of the next event appended
	sink     io.Writer
	sinkErr  error
}

// DefJournalCapacity is the default ring size: enough to replay minutes of
// busy scheduling without unbounded memory.
const DefJournalCapacity = 8192

// NewJournal returns a journal holding the last capacity events (0 selects
// DefJournalCapacity). sink, when non-nil, additionally receives every event
// as one JSON line; a sink write error is latched and stops further sink
// writes, never the journal.
func NewJournal(capacity int, sink io.Writer) *Journal {
	if capacity <= 0 {
		capacity = DefJournalCapacity
	}
	return &Journal{capacity: capacity, sink: sink}
}

// Append journals one event, stamping its sequence number and wall time.
func (j *Journal) Append(e Event) {
	e.Wall = time.Now().UnixNano()
	j.mu.Lock()
	e.Seq = j.next
	j.next++
	if len(j.buf) < j.capacity {
		j.buf = append(j.buf, e)
	} else {
		j.buf[int(e.Seq)%j.capacity] = e
	}
	if j.sink != nil && j.sinkErr == nil {
		data, err := json.Marshal(&e)
		if err == nil {
			data = append(data, '\n')
			_, err = j.sink.Write(data)
		}
		j.sinkErr = err
	}
	j.mu.Unlock()
}

// SinkErr reports the latched sink write error, if any.
func (j *Journal) SinkErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinkErr
}

// Filter selects events out of Since.
type Filter struct {
	// Type, when non-empty, keeps only events of that type.
	Type string
	// Shard, when >= 0, keeps only events of that shard.
	Shard int
	// Limit bounds the returned slice (0 means no bound beyond the ring).
	Limit int
}

// Since returns the retained events with Seq >= since that pass the filter,
// in sequence order, together with the cursor to resume from (pass it back
// as since to see only newer events) and how many matching-or-not events
// between since and the oldest retained one were already overwritten.
func (j *Journal) Since(since int64, f Filter) (events []Event, next int64, dropped int64) {
	if since < 0 {
		since = 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	oldest := j.next - int64(len(j.buf))
	if since < oldest {
		dropped = oldest - since
		since = oldest
	}
	for seq := since; seq < j.next; seq++ {
		e := j.buf[int(seq)%j.capacity]
		if f.Type != "" && e.Type != f.Type {
			continue
		}
		if f.Shard >= 0 && e.Shard != f.Shard {
			continue
		}
		events = append(events, e)
		if f.Limit > 0 && len(events) == f.Limit {
			return events, seq + 1, dropped
		}
	}
	return events, j.next, dropped
}

// Len reports how many events are currently retained.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}

// NextSeq reports the sequence number the next appended event will get.
func (j *Journal) NextSeq() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

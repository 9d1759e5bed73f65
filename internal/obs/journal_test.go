package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestJournalAppendSince(t *testing.T) {
	j := NewJournal(16, nil)
	j.Append(Event{Type: EventSubmit, Shard: 0, GID: 7})
	j.Append(Event{Type: EventAdmit, Shard: 0, GID: 7})
	j.Append(Event{Type: EventSubmit, Shard: 1, GID: 8})

	all, next, dropped := j.Since(0, Filter{Shard: -1})
	if len(all) != 3 || next != 3 || dropped != 0 {
		t.Fatalf("Since(0) = %d events, next %d, dropped %d", len(all), next, dropped)
	}
	for i, e := range all {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Wall == 0 {
			t.Fatalf("event %d missing wall stamp", i)
		}
	}
	// Resuming from the cursor sees only newer events.
	j.Append(Event{Type: EventSteal, Shard: 1, GID: -1})
	newer, _, _ := j.Since(next, Filter{Shard: -1})
	if len(newer) != 1 || newer[0].Type != EventSteal {
		t.Fatalf("resume saw %+v", newer)
	}
	// Filters.
	subs, _, _ := j.Since(0, Filter{Type: EventSubmit, Shard: -1})
	if len(subs) != 2 {
		t.Fatalf("type filter saw %d, want 2", len(subs))
	}
	sh1, _, _ := j.Since(0, Filter{Shard: 1})
	if len(sh1) != 2 {
		t.Fatalf("shard filter saw %d, want 2", len(sh1))
	}
	limited, lnext, _ := j.Since(0, Filter{Shard: -1, Limit: 2})
	if len(limited) != 2 || lnext != 2 {
		t.Fatalf("limit saw %d events, next %d", len(limited), lnext)
	}
}

func TestJournalRingOverwrite(t *testing.T) {
	j := NewJournal(4, nil)
	for i := 0; i < 10; i++ {
		j.Append(Event{Type: EventSubmit, GID: i})
	}
	events, next, dropped := j.Since(0, Filter{Shard: -1})
	if len(events) != 4 || next != 10 || dropped != 6 {
		t.Fatalf("ring: %d events, next %d, dropped %d", len(events), next, dropped)
	}
	for i, e := range events {
		if e.GID != 6+i || e.Seq != int64(6+i) {
			t.Fatalf("ring kept %+v at %d", e, i)
		}
	}
}

// TestJournalGrowsOnDemand: the ring holds what was journaled, up to its
// capacity, rather than reserving the whole capacity up front.
func TestJournalGrowsOnDemand(t *testing.T) {
	j := NewJournal(0, nil)
	if cap(j.buf) != 0 {
		t.Fatalf("a fresh journal reserves %d events", cap(j.buf))
	}
	for i := 0; i < 3; i++ {
		j.Append(Event{Type: EventSubmit, GID: i})
	}
	if j.Len() != 3 || cap(j.buf) >= DefJournalCapacity {
		t.Errorf("after 3 appends the journal holds %d events in room for %d", j.Len(), cap(j.buf))
	}
}

func TestJournalNDJSONSink(t *testing.T) {
	var sb strings.Builder
	j := NewJournal(4, &sb)
	j.Append(Event{Type: EventMigrate, Shard: 2, Gen: 1, GID: 9, VTime: "3/2"})
	j.Append(Event{Type: EventCompact, Shard: 2, Gen: 1, GID: -1})
	if err := j.SinkErr(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var lines []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 2 || lines[0].Type != EventMigrate || lines[0].VTime != "3/2" || lines[1].Type != EventCompact {
		t.Fatalf("sink lines = %+v", lines)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk gone") }

func TestJournalSinkErrorLatches(t *testing.T) {
	j := NewJournal(4, failWriter{})
	j.Append(Event{Type: EventSubmit})
	j.Append(Event{Type: EventSubmit})
	if j.SinkErr() == nil {
		t.Fatal("sink error not latched")
	}
	// The journal itself keeps working.
	if events, _, _ := j.Since(0, Filter{Shard: -1}); len(events) != 2 {
		t.Fatalf("journal lost events after sink failure: %d", len(events))
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(128, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Append(Event{Type: EventSubmit, Shard: w, GID: i})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			events, _, _ := j.Since(0, Filter{Shard: -1})
			last := int64(-1)
			for _, e := range events {
				if e.Seq <= last {
					t.Errorf("non-increasing seq: %d after %d", e.Seq, last)
					return
				}
				last = e.Seq
			}
		}
	}()
	wg.Wait()
	<-done
	if j.NextSeq() != 1600 {
		t.Fatalf("next seq = %d, want 1600", j.NextSeq())
	}
}

package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"divflow/internal/faults"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := l.Append("test", payload{N: i, S: fmt.Sprintf("record-%d", i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func reopen(t *testing.T, dir string, opts Options) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, recs
}

func checkSeqs(t *testing.T, recs []Record, want int) {
	t.Helper()
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := reopen(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh log returned %d records", len(recs))
	}
	appendN(t, l, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs := reopen(t, dir, Options{})
	defer l2.Close()
	checkSeqs(t, recs, 10)
	if got := l2.NextSeq(); got != 11 {
		t.Fatalf("NextSeq after reopen = %d, want 11", got)
	}
	// Appends continue the sequence in the same segment.
	appendN(t, l2, 11, 3)
	if got := l2.LastSeq(); got != 13 {
		t.Fatalf("LastSeq = %d, want 13", got)
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	l, _ := reopen(t, dir, Options{SegmentBytes: 128})
	appendN(t, l, 1, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected >=3 segments after rotation, got %d", len(segs))
	}
	l2, recs := reopen(t, dir, Options{SegmentBytes: 128})
	checkSeqs(t, recs, 20)
	// A snapshot at watermark 15 makes every record <=15 redundant: segments
	// wholly below 16 can go.
	if err := l2.TruncateBefore(16); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, recs := reopen(t, dir, Options{SegmentBytes: 128})
	defer l3.Close()
	if len(recs) == 0 || recs[len(recs)-1].Seq != 20 {
		t.Fatalf("post-truncate tail lost: %d records", len(recs))
	}
	for _, r := range recs {
		if r.Seq > 20 {
			t.Fatalf("unexpected seq %d", r.Seq)
		}
	}
	if first := recs[0].Seq; first > 16 {
		t.Fatalf("truncate removed needed records: first seq %d", first)
	}
	if got, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(got) >= len(segs) {
		t.Fatalf("truncate removed nothing: %d segments before, %d after", len(segs), len(got))
	}
}

func TestTornTailIgnoredAndTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := reopen(t, dir, Options{})
	appendN(t, l, 1, 5)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	// Simulate a crash mid-append: garbage half-frame at the tail.
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2, recs := reopen(t, dir, Options{})
	checkSeqs(t, recs, 5)
	// The torn tail was truncated, so appends land cleanly after record 5.
	appendN(t, l2, 6, 2)
	l2.Close()
	l3, recs := reopen(t, dir, Options{})
	defer l3.Close()
	checkSeqs(t, recs, 7)
}

func TestCorruptPayloadStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := reopen(t, dir, Options{})
	appendN(t, l, 1, 3)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the last record's payload: CRC mismatch, replay stops
	// before it.
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs := reopen(t, dir, Options{})
	defer l2.Close()
	checkSeqs(t, recs, 2)
}

func TestSnapshotRoundTripAndTorn(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok := LoadSnapshot(dir); ok {
		t.Fatal("empty dir claimed a snapshot")
	}
	if err := WriteSnapshot(dir, 7, []byte(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 12, []byte(`{"gen":2}`)); err != nil {
		t.Fatal(err)
	}
	seq, payload, ok := LoadSnapshot(dir)
	if !ok || seq != 12 || string(payload) != `{"gen":2}` {
		t.Fatalf("LoadSnapshot = %d %q %v", seq, payload, ok)
	}
	// A torn write of a newer snapshot must fall back to seq 12.
	faults.Reset()
	t.Cleanup(faults.Reset)
	faults.Arm(faults.TornSnapshot, 0)
	if err := WriteSnapshot(dir, 20, []byte(`{"gen":3,"big":"payload"}`)); err != nil {
		t.Fatal(err)
	}
	if !faults.Fired(faults.TornSnapshot) {
		t.Fatal("torn-snapshot fault did not fire")
	}
	seq, payload, ok = LoadSnapshot(dir)
	if !ok || seq != 12 || string(payload) != `{"gen":2}` {
		t.Fatalf("after torn snapshot: LoadSnapshot = %d %q %v", seq, payload, ok)
	}
}

func TestSnapshotPrune(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 5; i++ {
		if err := WriteSnapshot(dir, uint64(i*10), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if len(names) != snapKeep {
		t.Fatalf("prune kept %d snapshots, want %d", len(names), snapKeep)
	}
	seq, _, ok := LoadSnapshot(dir)
	if !ok || seq != 50 {
		t.Fatalf("newest snapshot = %d %v, want 50", seq, ok)
	}
}

func TestInjectedAppendAndCrashFaults(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	dir := t.TempDir()
	l, _ := reopen(t, dir, Options{Fsync: true})
	appendN(t, l, 1, 2)

	faults.Arm(faults.WALAppend, 0)
	if _, err := l.Append("test", payload{N: 3}); err == nil {
		t.Fatal("armed wal-append fault did not fire")
	}
	// The log is still usable and the failed append consumed no seq.
	appendN(t, l, 3, 1)
	if l.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", l.LastSeq())
	}

	faults.Arm(faults.WALFsync, 0)
	if _, err := l.Append("test", payload{N: 4}); err == nil {
		t.Fatal("armed wal-fsync fault did not fire")
	}

	faults.Arm(faults.CrashAfterAppend, 0)
	seq, err := l.Append("test", payload{N: 5, S: "durable"})
	if err == nil {
		t.Fatal("crash-after-append returned nil error")
	}
	if !l.Crashed() {
		t.Fatal("log not frozen after simulated crash")
	}
	if _, err := l.Append("test", payload{N: 6}); err != ErrCrashed {
		t.Fatalf("append after crash = %v, want ErrCrashed", err)
	}
	l.Close()
	// Restore sees everything through the crash record, nothing after.
	l2, recs := reopen(t, dir, Options{})
	defer l2.Close()
	if len(recs) == 0 || recs[len(recs)-1].Seq != seq {
		t.Fatalf("restore tail seq = %v, want %d", recs, seq)
	}
}

// segmentNames lists the segment files in dir, oldest first.
func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	return names
}

func seal(t *testing.T, l *Log) *Sealed {
	t.Helper()
	sealed, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := sealed.Close(); err != nil {
		t.Fatal(err)
	}
	return sealed
}

func TestSealStartsSegmentAtNextSeq(t *testing.T) {
	dir := t.TempDir()
	l, _ := reopen(t, dir, Options{})
	appendN(t, l, 1, 3)
	if seal(t, l) == nil {
		t.Fatal("sealing a segment holding records handed back nothing")
	}
	// The new segment holds no record yet: sealing it again is a no-op.
	if seal(t, l) != nil {
		t.Fatal("sealing an empty segment ended it")
	}
	if got, want := segmentNames(t, dir), []string{"wal-0000000000000001.log", "wal-0000000000000004.log"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("segments after a seal = %v, want %v", got, want)
	}
	appendN(t, l, 4, 2)
	l.Close()
	// The appends after the seal landed in the segment named for seq 4.
	recs, good, err := readSegment(filepath.Join(dir, "wal-0000000000000004.log"))
	if err != nil || good < 0 || len(recs) != 2 || recs[0].Seq != 4 {
		t.Fatalf("segment 4 holds %v (good %d, err %v), want seqs 4 and 5", recs, good, err)
	}
	l2, recs := reopen(t, dir, Options{})
	defer l2.Close()
	checkSeqs(t, recs, 5)
}

func TestRotationAndSealShareOnePath(t *testing.T) {
	dir := t.TempDir()
	l, _ := reopen(t, dir, Options{SegmentBytes: 128})
	for i := 1; i <= 12; i++ {
		appendN(t, l, i, 1)
		if i%5 == 0 {
			seal(t, l)
		}
	}
	l.Close()
	l2, recs := reopen(t, dir, Options{SegmentBytes: 128})
	defer l2.Close()
	checkSeqs(t, recs, 12)
	// Whoever ended a segment — the size threshold or a seal — the next one
	// is named for the first record it holds, and none is empty but the last.
	names := segmentNames(t, dir)
	for _, name := range names {
		recs, _, err := readSegment(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatalf("segment %s holds no record", name)
		}
		first, _ := segmentFirstSeq(name)
		if recs[0].Seq != first {
			t.Fatalf("segment %s starts with seq %d", name, recs[0].Seq)
		}
	}
	if len(names) < 4 {
		t.Fatalf("12 records over 128-byte segments and two seals made %d segments", len(names))
	}
}

func TestOpenReadsAcrossSealedAndEmptySegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := reopen(t, dir, Options{})
	appendN(t, l, 1, 5)
	seal(t, l)
	l.Close()
	// A sealed segment and the empty one after it.
	l2, recs := reopen(t, dir, Options{})
	checkSeqs(t, recs, 5)
	if got := l2.NextSeq(); got != 6 {
		t.Fatalf("NextSeq across an empty segment = %d, want 6", got)
	}
	appendN(t, l2, 6, 2)
	// The snapshot at watermark 5 covers the sealed segment whole.
	if err := l2.TruncateBefore(6); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if got, want := segmentNames(t, dir), []string{"wal-0000000000000006.log"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("segments after truncating behind 5 = %v, want %v", got, want)
	}
	l3, recs := reopen(t, dir, Options{})
	defer l3.Close()
	if len(recs) != 2 || recs[0].Seq != 6 || recs[1].Seq != 7 || l3.NextSeq() != 8 {
		t.Fatalf("after truncation: %d records from seq %d, NextSeq %d; want 6 and 7, NextSeq 8", len(recs), recs[0].Seq, l3.NextSeq())
	}
}

// A crash between creating a sealed-to segment and writing its magic leaves
// an empty file; once the log behind it was truncated, it is the only record
// of where the sequence goes on.
func TestOpenRestartsHeaderlessSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := reopen(t, dir, Options{})
	appendN(t, l, 1, 5)
	seal(t, l)
	if err := l.TruncateBefore(6); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Truncate(filepath.Join(dir, "wal-0000000000000006.log"), 0); err != nil {
		t.Fatal(err)
	}
	l2, recs := reopen(t, dir, Options{})
	if len(recs) != 0 || l2.NextSeq() != 6 {
		t.Fatalf("headerless segment 6: %d records, NextSeq %d; want none and 6", len(recs), l2.NextSeq())
	}
	appendN(t, l2, 6, 1)
	l2.Close()
	l3, recs := reopen(t, dir, Options{})
	defer l3.Close()
	if len(recs) != 1 || recs[0].Seq != 6 {
		t.Fatalf("after restarting segment 6: %v", recs)
	}
}

func TestOpenRefusesHole(t *testing.T) {
	dir := t.TempDir()
	l, _ := reopen(t, dir, Options{})
	for _, n := range []int{1, 4, 7} {
		appendN(t, l, n, 3)
		seal(t, l)
	}
	l.Close()
	if err := os.Remove(filepath.Join(dir, "wal-0000000000000004.log")); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{})
	if err == nil {
		t.Fatal("Open replayed a log missing its middle segment")
	}
	for _, want := range []string{"wal-0000000000000007.log", "starts at seq 7", "ends at seq 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

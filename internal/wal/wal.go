// Package wal is divflowd's durability layer: an append-only, CRC-framed,
// segmented record log plus atomic temp-write-and-rename snapshots.
//
// Log format. A segment file is the 8-byte magic "DIVWAL01" followed by
// frames. Each frame is
//
//	[4B little-endian payload length][4B little-endian CRC32-IEEE of payload][payload]
//
// where the payload is a JSON envelope {"seq": N, "type": "...", "data": ...}.
// Segments are named wal-<first-seq, 16 hex digits>.log. Seal ends the active
// segment and starts the next one at the next sequence number; Append seals
// once the active segment exceeds Options.SegmentBytes, and the server seals
// at every snapshot's watermark, so a snapshot covers whole segments. The
// reader stops at the first torn or CRC-corrupt frame — a torn tail from a
// crash mid-append is expected and silently truncated on the next Open, so
// the log always replays as a consistent prefix of what was appended. A log
// with a hole (a segment that does not start where the one before it ends)
// is refused.
//
// Snapshots are a separate file per watermark (snapshot.go); TruncateBefore
// drops the segments a snapshot has made redundant.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"divflow/internal/faults"
)

var segmentMagic = []byte("DIVWAL01")

const frameHeaderLen = 8

// maxFrameLen bounds a single record payload; anything larger in a length
// header is treated as corruption rather than an allocation request.
const maxFrameLen = 64 << 20

// ErrCrashed is returned by Append after the log has frozen at a simulated
// crash point (faults.CrashAfterAppend): the on-disk log ends at the last
// durable record and refuses to advance.
var ErrCrashed = errors.New("wal: log frozen at simulated crash")

// Options configure a Log.
type Options struct {
	// Fsync syncs the segment file after every append. Off, durability is
	// bounded by the OS page cache (a clean daemon exit still flushes).
	Fsync bool
	// SegmentBytes is the rotation threshold for the active segment.
	// Zero selects the default (8 MiB).
	SegmentBytes int64
}

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes int64 = 8 << 20

// Record is one decoded WAL entry.
type Record struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

type segment struct {
	path  string
	first uint64 // seq of the first record in the segment
}

// Log is an open write-ahead log rooted at a directory.
type Log struct {
	dir      string
	opts     Options
	segments []segment // sorted by first seq; last is active
	active   *os.File
	size     int64
	nextSeq  uint64
	crashed  bool
	buf      []byte // scratch frame buffer, reused across Appends
}

// Open opens (creating if needed) the log in dir, truncates any torn tail
// left by a crash, and returns the log together with every record currently
// on disk, in sequence order. The first record of a fresh log has seq 1. A
// log whose segments do not continue one another — a segment lost from the
// middle, a record out of sequence — is refused with an error naming both
// seqs rather than replayed with a gap.
func Open(dir string, opts Options) (*Log, []Record, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1}

	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	sort.Strings(names)
	var records []Record
	for i, path := range names {
		first, ok := segmentFirstSeq(path)
		if !ok {
			continue
		}
		if len(l.segments) > 0 && first != l.nextSeq {
			return nil, nil, fmt.Errorf("wal: segment %s starts at seq %d, the segment before it ends at seq %d", path, first, l.nextSeq-1)
		}
		l.nextSeq = first
		recs, good, err := readSegment(path)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case good < 0:
			// Unreadable header: a crash between creating the segment and
			// writing its magic. Only the last segment can be caught there, and
			// it holds no record yet: start it again, empty, at the seq its name
			// carries.
			if i != len(names)-1 {
				return nil, nil, fmt.Errorf("wal: segment %s has no valid header", path)
			}
			if err := os.WriteFile(path, segmentMagic, 0o644); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
		case tornAt(path, good):
			// A torn tail is only legitimate on the final segment; corruption
			// in the middle of the sequence would orphan everything after it.
			if i != len(names)-1 {
				return nil, nil, fmt.Errorf("wal: segment %s is corrupt mid-log", path)
			}
			if err := os.Truncate(path, good); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
		}
		for _, rec := range recs {
			if rec.Seq != l.nextSeq {
				return nil, nil, fmt.Errorf("wal: segment %s holds seq %d where seq %d belongs", path, rec.Seq, l.nextSeq)
			}
			l.nextSeq++
		}
		records = append(records, recs...)
		l.segments = append(l.segments, segment{path: path, first: first})
	}
	if n := len(l.segments); n > 0 {
		f, err := os.OpenFile(l.segments[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		l.active, l.size = f, st.Size()
	}
	return l, records, nil
}

// segmentFirstSeq parses the first-seq hex out of a segment file name.
func segmentFirstSeq(path string) (uint64, bool) {
	base := filepath.Base(path)
	hex := strings.TrimSuffix(strings.TrimPrefix(base, "wal-"), ".log")
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// readSegment decodes a segment. It returns the records read, the byte
// offset of the first invalid frame (== file size when the segment is
// clean), or good == -1 when the file has no valid magic header.
func readSegment(path string) (recs []Record, good int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != string(segmentMagic) {
		return nil, -1, nil
	}
	off := int64(len(segmentMagic))
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, nil
		}
		if len(rest) < frameHeaderLen {
			return recs, off, nil // torn header
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n > maxFrameLen || int64(len(rest)) < frameHeaderLen+int64(n) {
			return recs, off, nil // absurd length or torn payload
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int64(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, nil // corrupt payload
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, off, nil // frame intact but not a record
		}
		recs = append(recs, rec)
		off += frameHeaderLen + int64(n)
	}
}

// tornAt reports whether the segment at path has bytes past offset good
// (i.e. a torn or corrupt tail that needs truncation).
func tornAt(path string, good int64) bool {
	st, err := os.Stat(path)
	return err == nil && st.Size() > good
}

// NextSeq returns the sequence number the next Append will use.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

// LastSeq returns the sequence number of the most recent durable record
// (0 when the log is empty).
func (l *Log) LastSeq() uint64 { return l.nextSeq - 1 }

// Append encodes v as the data of a record of the given type, frames it, and
// writes it to the active segment (sealing it first if it is full).
// With Options.Fsync the write is synced before Append returns. The record's
// sequence number is returned; on error nothing durable past the previous
// record is promised.
//
// typ must be a plain identifier needing no JSON escaping — it is spliced
// into the envelope verbatim. Every record type in this codebase is a fixed
// lowercase word.
func (l *Log) Append(typ string, v any) (uint64, error) {
	if l.crashed {
		return 0, ErrCrashed
	}
	if err := faults.Error(faults.WALAppend); err != nil {
		return 0, err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("wal: encode %s: %w", typ, err)
	}
	if l.active == nil || l.size >= l.opts.SegmentBytes {
		sealed, err := l.Seal()
		if err == nil {
			err = sealed.Close()
		}
		if err != nil {
			return 0, err
		}
	}
	// The envelope is assembled by hand into a reusable buffer: marshalling
	// it through encoding/json would serialize the payload a second time and
	// allocate a fresh frame on the append path of every state change.
	buf := append(l.buf[:0], make([]byte, frameHeaderLen)...)
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, l.nextSeq, 10)
	buf = append(buf, `,"type":"`...)
	buf = append(buf, typ...)
	buf = append(buf, `","data":`...)
	buf = append(buf, data...)
	buf = append(buf, '}')
	l.buf = buf
	payload := buf[frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	prev := l.size
	if _, err := l.active.Write(buf); err != nil {
		// Best-effort removal of any partial frame, so a later append cannot
		// land behind garbage.
		l.active.Truncate(prev)
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size = prev + int64(len(buf))
	syncErr := error(nil)
	if l.opts.Fsync {
		syncErr = faults.Error(faults.WALFsync)
		if syncErr == nil {
			if err := l.active.Sync(); err != nil {
				syncErr = fmt.Errorf("wal: fsync: %w", err)
			}
		}
	}
	if syncErr != nil {
		// The frame is written but not durable; truncate it back out so the
		// failed append consumes no sequence number and a retry cannot
		// duplicate it.
		l.active.Truncate(prev)
		l.size = prev
		return 0, syncErr
	}
	seq := l.nextSeq
	l.nextSeq++
	if faults.Hit(faults.CrashAfterAppend) {
		// The record just written is durable; everything after this moment
		// behaves as if the process died here.
		l.crashed = true
		l.active.Sync()
		return seq, fmt.Errorf("wal: %w", faults.ErrCrash)
	}
	return seq, nil
}

// Sealed is a segment Seal ended: nothing is appended to it any more, and it
// is not yet synced.
type Sealed struct{ f *os.File }

// Close syncs and closes the sealed segment. Closing a nil Sealed (Seal had
// nothing to end) does nothing.
func (s *Sealed) Close() error {
	if s == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	return nil
}

// Seal starts a new segment, wal-<NextSeq>.log, and makes it the active one:
// every record appended from here on lands in it. It is the one place a
// segment starts — Append seals a full segment, and a snapshot seals at its
// watermark so that TruncateBefore can later drop everything the snapshot
// covers. Sealing an active segment that holds no record is a no-op and
// returns nil. The segment Seal ended is handed back unsynced: the caller
// closes it, off whatever locks it holds.
func (l *Log) Seal() (*Sealed, error) {
	if l.crashed {
		return nil, ErrCrashed
	}
	if l.active != nil && l.size <= int64(len(segmentMagic)) {
		return nil, nil
	}
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.log", l.nextSeq))
	// O_APPEND keeps every write at the true end of file even after a
	// failed append was truncated back out.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: seal: %w", err)
	}
	if _, err := f.Write(segmentMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seal: %w", err)
	}
	var sealed *Sealed
	if l.active != nil {
		sealed = &Sealed{f: l.active}
	}
	l.segments = append(l.segments, segment{path: path, first: l.nextSeq})
	l.active, l.size = f, int64(len(segmentMagic))
	return sealed, nil
}

// Sync flushes the active segment to disk regardless of Options.Fsync.
func (l *Log) Sync() error {
	if l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// TruncateBefore removes segments every record of which has seq < seq —
// i.e. segments made redundant by a snapshot at watermark seq-1. The active
// segment is never removed; a sealed one goes as soon as the segment after
// it starts at or below seq.
func (l *Log) TruncateBefore(seq uint64) error {
	for len(l.segments) > 1 && l.segments[1].first <= seq {
		if err := os.Remove(l.segments[0].path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.segments = l.segments[1:]
	}
	return nil
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	if l.active == nil {
		return nil
	}
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Crashed reports whether the log froze at a simulated crash point.
func (l *Log) Crashed() bool { return l.crashed }

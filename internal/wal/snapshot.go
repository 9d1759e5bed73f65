package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"divflow/internal/faults"
)

// Snapshot file format: a header line
//
//	DIVSNAP1 <watermark seq, decimal> <crc32-IEEE of payload, 8 hex>\n
//
// followed by the payload (an opaque blob to this package; the server writes
// JSON). Files are named snap-<watermark, 16 hex digits>.json and written
// atomically: payload to a temp file in the same directory, fsync, rename.
// A reader therefore either sees a complete snapshot or (after a crash
// mid-write) a file whose CRC does not match — LoadSnapshot skips those and
// falls back to the next-newest valid snapshot.

const snapMagic = "DIVSNAP1"

// snapKeep is how many snapshot files WriteSnapshot leaves on disk: the one
// just written plus one predecessor, so a torn write never strands the log
// without a usable restore point.
const snapKeep = 2

// WriteSnapshot atomically writes payload as the snapshot at WAL watermark
// seq (every record with seq' <= seq is folded into it), then prunes all but
// the newest snapKeep snapshot files.
func WriteSnapshot(dir string, seq uint64, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	// The header CRC always describes the full payload; the torn-snapshot
	// fault then truncates the body it writes, so the published file cannot
	// validate — exactly what a crash between write and fsync leaves behind.
	sum := crc32.ChecksumIEEE(payload)
	if faults.Hit(faults.TornSnapshot) {
		if len(payload) > 1 {
			payload = payload[:len(payload)/2]
		} else {
			payload = []byte("torn")
		}
	}
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	tmpName := tmp.Name()
	_, err = fmt.Fprintf(tmp, "%s %d %08x\n", snapMagic, seq, sum)
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	final := filepath.Join(dir, fmt.Sprintf("snap-%016x.json", seq))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	pruneSnapshots(dir)
	return nil
}

// pruneSnapshots removes all but the newest snapKeep snapshot files.
// Best-effort: a failure to prune never fails the snapshot that was just
// written.
func pruneSnapshots(dir string) {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil {
		return
	}
	sort.Strings(names)
	for len(names) > snapKeep {
		os.Remove(names[0])
		names = names[1:]
	}
}

// LoadSnapshot returns the newest valid snapshot in dir: its watermark seq,
// its payload, and ok=true. Corrupt (torn) snapshots are skipped; ok=false
// means no valid snapshot exists.
func LoadSnapshot(dir string) (seq uint64, payload []byte, ok bool) {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil {
		return 0, nil, false
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, path := range names {
		if seq, payload, ok := readSnapshot(path); ok {
			return seq, payload, true
		}
	}
	return 0, nil, false
}

// readSnapshot validates one snapshot file.
func readSnapshot(path string) (seq uint64, payload []byte, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, false
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return 0, nil, false
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != snapMagic {
		return 0, nil, false
	}
	seq, err = strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, nil, false
	}
	sum, err := strconv.ParseUint(fields[2], 16, 32)
	if err != nil {
		return 0, nil, false
	}
	payload = data[nl+1:]
	if crc32.ChecksumIEEE(payload) != uint32(sum) {
		return 0, nil, false
	}
	return seq, payload, true
}

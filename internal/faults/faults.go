// Package faults is a registry of named fault-injection points used by the
// crash/restart test harness. Production code declares a point by calling
// Hit/Error/MaybePanic at the place where the fault would strike; tests arm a
// point with Arm and the next matching call fires exactly once. When nothing
// is armed the hot-path check is a single atomic load, so the hooks can live
// on the WAL append and policy-decide paths without pricing normal runs.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// The registered fault points. Every name here must have a corresponding
// Hit/Error/MaybePanic call site in the codebase (TestPointsHaveCallSites).
// The TestWAL suites and TestPanicUnderWALRestoresUninterrupted in
// internal/server pin that each one either keeps the daemon serving or
// restores exactly.
const (
	// WALAppend fails a WAL record append with ErrInjected before any bytes
	// are written: the record is lost, the log stays consistent.
	WALAppend = "wal-append"
	// WALFsync fails the fsync after a WAL append: the bytes are in the OS
	// page cache but durability is no longer guaranteed.
	WALFsync = "wal-fsync"
	// CrashAfterAppend freezes the log immediately after a successful,
	// durable append — the moment a real crash would strike. Every later
	// append returns ErrCrash; the on-disk state ends exactly at the
	// appended record.
	CrashAfterAppend = "crash-after-append"
	// TornSnapshot truncates the snapshot payload mid-write before the
	// rename, simulating a crash that leaves a corrupt snapshot file in
	// place. Restore must skip it and fall back to the previous snapshot.
	TornSnapshot = "torn-snapshot"
	// PanicInPolicy panics inside a shard's scheduling decision, exercising
	// the shard's panic barrier.
	PanicInPolicy = "panic-in-policy"
)

// ErrInjected is returned by Error when an armed point fires.
var ErrInjected = errors.New("faults: injected failure")

// ErrCrash marks a simulated crash: the operation that returns it completed
// durably, but everything after it must behave as if the process died.
var ErrCrash = errors.New("faults: simulated crash")

// Points lists every registered fault-point name.
func Points() []string {
	return []string{WALAppend, WALFsync, CrashAfterAppend, TornSnapshot, PanicInPolicy}
}

type point struct {
	countdown int // hits to skip before firing
	fired     bool
}

var (
	mu    sync.Mutex
	armed int32 // atomic: number of armed, unfired points
	reg   = map[string]*point{}
	hits  = map[string]int{} // total Hit calls per name, armed or not
)

// Arm schedules the named point to fire once, after skipping the next `skip`
// hits (skip 0 fires on the very next hit). Re-arming replaces any previous
// schedule for the name.
func Arm(name string, skip int) {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := reg[name]; ok && !p.fired {
		atomic.AddInt32(&armed, -1)
	}
	reg[name] = &point{countdown: skip}
	atomic.AddInt32(&armed, 1)
}

// Disarm removes any schedule for the named point (fired or not).
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := reg[name]; ok {
		if !p.fired {
			atomic.AddInt32(&armed, -1)
		}
		delete(reg, name)
	}
}

// Reset disarms every point and clears all hit counters. Tests call it in
// cleanup so armed points never leak across test cases.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	atomic.StoreInt32(&armed, 0)
	reg = map[string]*point{}
	hits = map[string]int{}
}

// Fired reports whether the named point has fired since it was last armed.
func Fired(name string) bool {
	mu.Lock()
	defer mu.Unlock()
	p, ok := reg[name]
	return ok && p.fired
}

// Hits returns the total number of times the named point's call site was
// reached (whether or not the point was armed). Tests use it to count events
// in a rehearsal run, then Arm(name, n) to strike a specific occurrence.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	return hits[name]
}

// Hit records that the named point's call site was reached and reports
// whether the point fires now. A point fires exactly once per Arm.
func Hit(name string) bool {
	if atomic.LoadInt32(&armed) == 0 {
		// Fast path: nothing armed anywhere. Hit counters are only
		// maintained while the harness has at least one point armed, which
		// keeps this check off the mutex for production runs.
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	hits[name]++
	p, ok := reg[name]
	if !ok || p.fired {
		return false
	}
	if p.countdown > 0 {
		p.countdown--
		return false
	}
	p.fired = true
	atomic.AddInt32(&armed, -1)
	return true
}

// Error returns ErrInjected (wrapped with the point name) when the named
// point fires, nil otherwise.
func Error(name string) error {
	if Hit(name) {
		return fmt.Errorf("%s: %w", name, ErrInjected)
	}
	return nil
}

// MaybePanic panics when the named point fires.
func MaybePanic(name string) {
	if Hit(name) {
		panic(fmt.Sprintf("faults: injected panic at %s", name))
	}
}

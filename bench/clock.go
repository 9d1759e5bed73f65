package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// Every wall-clock, rusage and runtime-metrics read of the harness lives in
// this file: its
// basename is the one `divflowvet wallclock` allowlists, so the rest of the
// harness stays analyzable like the code it measures.

func now() time.Time { return time.Now() }

func since(t time.Time) time.Duration { return time.Since(t) }

// sleepUntil blocks until the wall clock reaches t (no-op when t is past).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heldMB is the memory the Go runtime holds from the operating system right
// now: everything it has mapped less what it has given back.
func heldMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// maxRSSMB is the process's peak resident set size (ru_maxrss is in KiB on
// Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

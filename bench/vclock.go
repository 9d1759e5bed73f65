package main

import (
	"math/big"
	"sync"

	"divflow/internal/server"
)

// replayClock is the service's VirtualClock plus a record of the timers the
// shard loops have armed, so the replay driver can tell when a loop has
// caught up with an advance. It needs to: the tenant-quota check reads
// shard backlogs without the shard lock, so a submit racing the loop's
// catch-up to the new time would see completions processed or not by
// chance, and the counts of two replays of one stream would differ.
type replayClock struct {
	*server.VirtualClock
	mu    sync.Mutex
	armed map[*big.Rat]struct{}
}

func newReplayClock() *replayClock {
	return &replayClock{VirtualClock: server.NewVirtualClock(), armed: make(map[*big.Rat]struct{})}
}

// At implements server.Clock.
func (c *replayClock) At(t *big.Rat) (<-chan struct{}, func()) {
	ch, cancel := c.VirtualClock.At(t)
	key := new(big.Rat).Set(t)
	c.mu.Lock()
	c.armed[key] = struct{}{}
	c.mu.Unlock()
	return ch, func() {
		c.mu.Lock()
		delete(c.armed, key)
		c.mu.Unlock()
		cancel()
	}
}

// sleepingPast reports whether a timer due after t is armed: a shard loop
// has finished with everything up to t and gone to sleep toward its next
// event. (A timer the advance to t fired stays in the record until its loop
// wakes and cancels it, so it is never mistaken for a future one.)
func (c *replayClock) sleepingPast(t *big.Rat) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for at := range c.armed {
		if at.Cmp(t) > 0 {
			return true
		}
	}
	return false
}

// step advances the clock to the earliest armed timer, provided it is due
// within limit of now (nil: however far), and reports whether it moved. The
// limit keeps a drain from leaping to a retired shard's compaction timer a
// whole retention window ahead while a busy shard is between two timers.
func (c *replayClock) step(limit *big.Rat) bool {
	now := c.Now()
	c.mu.Lock()
	var next *big.Rat
	for at := range c.armed {
		if at.Cmp(now) > 0 && (next == nil || at.Cmp(next) < 0) {
			next = at
		}
	}
	c.mu.Unlock()
	if next == nil || (limit != nil && new(big.Rat).Sub(next, now).Cmp(limit) > 0) {
		return false
	}
	c.Advance(next)
	return true
}

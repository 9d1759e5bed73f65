// Package server seeds lockorder and emitmu violations against the declared
// fixture order fleet → shard → journal, with the journal class imported
// from the obs package purely as a cross-package fact.
package server

import (
	"sync"

	"divflow/internal/obs"
)

type Shard struct {
	mu sync.Mutex //divflow:locks name=shard before=journal
	j  *obs.Journal
	n  int
}

type Fleet struct {
	mu     sync.Mutex //divflow:locks name=fleet before=shard
	shards []*Shard
}

// Box sits outside the declared order: no edge says journal may nest under
// it.
type Box struct {
	mu sync.Mutex //divflow:locks name=box
	j  *obs.Journal
}

// emit journals under the shard's mu.
//
//divflow:locks requires=shard
func (s *Shard) emit() {
	s.j.Append()
	s.n++
}

func (s *Shard) Emit() {
	s.mu.Lock()
	s.emit()
	s.mu.Unlock()
}

func (s *Shard) EmitUnlocked() {
	s.emit() // want `emitmu: call to emit requires shard held \(holding nothing\)`
}

func Inverted(f *Fleet, s *Shard) {
	s.mu.Lock()
	f.mu.Lock() // want `lockorder: acquires fleet while holding shard`
	f.mu.Unlock()
	s.mu.Unlock()
}

// Flush holds box over the journal append; without a box→journal edge the
// cross-package fact about Append must fire here.
func (b *Box) Flush() {
	b.mu.Lock()
	b.j.Append() // want `lockorder: call to Append may acquire journal while holding box`
	b.mu.Unlock()
}

// Sweep is not blessed ascending, so holding one shard mu per iteration into
// the next is a diagnostic.
func Sweep(f *Fleet) {
	f.mu.Lock()
	for _, s := range f.shards { // want `lockorder: loop acquires shard instance per iteration`
		s.mu.Lock()
	}
	f.mu.Unlock()
}

// SweepBlessed is the sanctioned all-shards form of the same loop.
//
//divflow:locks ascending=shard
func SweepBlessed(f *Fleet) {
	f.mu.Lock()
	for _, s := range f.shards {
		s.mu.Lock()
	}
	for _, s := range f.shards {
		s.mu.Unlock()
	}
	f.mu.Unlock()
}

// LockShards is blessed to sweep shard mus and takes no other class.
//
//divflow:locks ascending=shard
func LockShards(all []*Shard) {
	for _, s := range all {
		s.mu.Lock()
	}
	for _, s := range all {
		s.mu.Unlock()
	}
}

// SweepUnderShard holds one shard's mu into the blessed sweep: the blessing
// covers the helper's own instances, not the one its caller already holds.
func (s *Shard) SweepUnderShard(all []*Shard) {
	s.mu.Lock()
	LockShards(all) // want `lockorder: call to LockShards may acquire shard while shard is already held`
	s.mu.Unlock()
}

// count reads the fleet under its mu.
//
//divflow:locks requires=fleet
func (f *Fleet) count() int { return len(f.shards) }

// TryCount takes the fleet's mu only when it is free: past the failed try's
// return, the fleet is held.
func TryCount(f *Fleet) int {
	if !f.mu.TryLock() {
		return 0
	}
	defer f.mu.Unlock()
	return f.count()
}

// TryCountUnheld reads on the branch where the try failed, holding nothing.
func TryCountUnheld(f *Fleet) int {
	if f.mu.TryLock() {
		defer f.mu.Unlock()
		return f.count()
	}
	return f.count() // want `emitmu: call to count requires fleet held \(holding nothing\)`
}

package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestHitFiresOncePerArm pins the contract every crash-restore test leans
// on: an armed point fires on exactly one hit, and never again until
// re-armed.
func TestHitFiresOncePerArm(t *testing.T) {
	t.Cleanup(Reset)
	Reset()

	if Hit(WALAppend) {
		t.Fatal("unarmed point fired")
	}
	Arm(WALAppend, 0)
	if !Hit(WALAppend) {
		t.Fatal("armed point did not fire on the next hit")
	}
	for i := 0; i < 3; i++ {
		if Hit(WALAppend) {
			t.Fatal("point fired a second time without re-arming")
		}
	}
	if !Fired(WALAppend) {
		t.Fatal("Fired = false after the point fired")
	}
	Arm(WALAppend, 0)
	if Fired(WALAppend) {
		t.Fatal("re-arming did not clear Fired")
	}
	if !Hit(WALAppend) {
		t.Fatal("re-armed point did not fire")
	}
}

// TestArmSkipCountsHits pins the skip semantics tests use to strike the
// Nth occurrence of an event: Arm(name, n) skips n hits and fires on
// hit n+1.
func TestArmSkipCountsHits(t *testing.T) {
	t.Cleanup(Reset)
	Reset()

	Arm(CrashAfterAppend, 2)
	for i := 0; i < 2; i++ {
		if Hit(CrashAfterAppend) {
			t.Fatalf("fired while skipping, hit %d", i)
		}
	}
	if !Hit(CrashAfterAppend) {
		t.Fatal("did not fire after the skips were consumed")
	}
	// Hit counters run while anything is armed, so a rehearsal run can count
	// occurrences before choosing which one to strike.
	if got := Hits(CrashAfterAppend); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
}

func TestErrorWrapsInjected(t *testing.T) {
	t.Cleanup(Reset)
	Reset()

	if err := Error(WALFsync); err != nil {
		t.Fatalf("unarmed Error = %v", err)
	}
	Arm(WALFsync, 0)
	err := Error(WALFsync)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Error = %v, want ErrInjected", err)
	}
	if err := Error(WALFsync); err != nil {
		t.Fatalf("second Error = %v, want nil", err)
	}
}

func TestMaybePanicFires(t *testing.T) {
	t.Cleanup(Reset)
	Reset()

	MaybePanic(PanicInPolicy) // unarmed: must not panic
	Arm(PanicInPolicy, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("armed MaybePanic did not panic")
		}
	}()
	MaybePanic(PanicInPolicy)
}

func TestDisarmAndReset(t *testing.T) {
	t.Cleanup(Reset)
	Reset()

	Arm(TornSnapshot, 0)
	Disarm(TornSnapshot)
	if Hit(TornSnapshot) {
		t.Fatal("disarmed point fired")
	}
	Arm(TornSnapshot, 0)
	Reset()
	if Hit(TornSnapshot) {
		t.Fatal("point fired after Reset")
	}
	if got := Hits(TornSnapshot); got != 0 {
		t.Fatalf("Hits after Reset = %d, want 0", got)
	}
}

// TestPointsHaveCallSites keeps the registry honest: every name Points()
// advertises must be a registered constant, and arming one name must not
// make another fire.
func TestPointsHaveCallSites(t *testing.T) {
	t.Cleanup(Reset)
	Reset()

	pts := Points()
	if len(pts) == 0 {
		t.Fatal("no registered fault points")
	}
	for _, name := range pts {
		Arm(name, 0)
	}
	for _, name := range pts {
		if !Hit(name) {
			t.Fatalf("point %s armed but did not fire", name)
		}
	}
	Reset()
	Arm(pts[0], 0)
	for _, name := range pts[1:] {
		if Hit(name) {
			t.Fatalf("arming %s made %s fire", pts[0], name)
		}
	}
}

// TestConcurrentHitsFireExactlyOnce exercises the armed counter under
// parallel call sites, the shape the sharded daemon actually has.
func TestConcurrentHitsFireExactlyOnce(t *testing.T) {
	t.Cleanup(Reset)
	Reset()

	Arm(WALAppend, 5)
	var wg sync.WaitGroup
	fired := make(chan struct{}, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if Hit(WALAppend) {
					fired <- struct{}{}
				}
			}
		}()
	}
	wg.Wait()
	close(fired)
	n := 0
	for range fired {
		n++
	}
	if n != 1 {
		t.Fatalf("point fired %d times across 64 concurrent hits, want exactly 1", n)
	}
}

// TestUnarmedPointTakesNoLockAndAllocatesNothing pins the cost of a fault
// point on the production paths when nothing is armed: Hit, Error and
// MaybePanic on every registered name return at once while another goroutine
// holds the package mutex — they never wait for it — and allocate nothing.
func TestUnarmedPointTakesNoLockAndAllocatesNothing(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	calls := func() {
		for _, name := range Points() {
			if Hit(name) || Error(name) != nil {
				t.Errorf("unarmed point %s fired", name)
			}
			MaybePanic(name)
		}
	}
	mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		calls()
	}()
	select {
	case <-done:
		mu.Unlock()
	case <-time.After(5 * time.Second):
		mu.Unlock()
		<-done
		t.Fatal("an unarmed point waited for the package mutex")
	}
	for _, name := range Points() {
		for _, tc := range []struct {
			what string
			call func()
		}{
			{"Hit", func() { Hit(name) }},
			{"Error", func() { _ = Error(name) }},
			{"MaybePanic", func() { MaybePanic(name) }},
		} {
			if n := testing.AllocsPerRun(100, tc.call); n != 0 {
				t.Errorf("%s(%s) unarmed allocates %v times a call", tc.what, name, n)
			}
		}
	}
}

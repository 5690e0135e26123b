package server

import (
	"sync"
	"testing"
	"time"
)

// TestBreakerHalfOpenConcurrentProbes races many goroutines against an
// open circuit whose cooldown has just elapsed: exactly one may be
// admitted as the half-open probe, the rest must be refused. Run under
// -race, this also pins that allow's probe handoff is properly locked.
func TestBreakerHalfOpenConcurrentProbes(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b := newBreakerSet(clock.now)
	const key = "suite:raced"
	for i := 0; i < breakerThreshold; i++ {
		b.fail(key)
	}
	if b.retryIn(key) <= 0 {
		t.Fatal("circuit not open after threshold failures")
	}
	clock.advance(breakerCooldown)

	const racers = 16
	var (
		start    = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted int
	)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.allow(key) {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("half-open slot admitted %d probes, want exactly 1", admitted)
	}

	// The probe's outcome settles the slot. A failure re-opens the
	// cooldown: nobody gets in until it elapses again, and then again
	// exactly one.
	b.fail(key)
	if b.allow(key) {
		t.Error("probe admitted before the restarted cooldown elapsed")
	}
	clock.advance(breakerCooldown)
	if !b.allow(key) {
		t.Error("no probe admitted after the restarted cooldown")
	}
	if b.allow(key) {
		t.Error("second concurrent probe admitted while the first is in flight")
	}
	// A successful probe closes the circuit for everyone.
	b.succeed(key)
	for i := 0; i < 3; i++ {
		if !b.allow(key) {
			t.Fatal("closed circuit refused a caller")
		}
	}
}

package stage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// The byte plane under the Store: an ordered chain of tiers holding
// framed artifact bytes — the disk tier when the store has a
// directory, then the peer tier when it has peers (see NewStore). The
// Store's value plane (decoded artifacts in the LRU, singleflight)
// sits above it; on a value miss the Store walks the chain top to
// bottom, decodes the first tier that has the bytes, and promotes them
// into every tier above the hit. A miss through the whole chain falls
// through to compute, and the computed artifact is written through
// every tier.
//
// Every tier is the same type over a different device, so a remote
// tier gets exactly the same integrity framing, quarantine and breaker
// behavior as the local disk.

// Canonical tier names, reported by Outcome.Tier and the Stats.Tiers
// rows.
const (
	TierDisk = "disk"
	TierPeer = "peer"
)

// ErrNotFound reports a clean miss: the tier is healthy, it just does
// not hold the artifact. Every other error from a device means the
// operation failed and feeds the tier's breaker.
var ErrNotFound = errors.New("stage: artifact not found")

// TierStats is one tier's health and traffic row, surfaced under
// /metricz stages.tiers.
type TierStats struct {
	// State is TierOK or TierDegraded (the breaker's view).
	State string `json:"state"`
	// Entries is the tier's current artifact count, where knowable:
	// the disk tier's directory scan, zero for the peer tier.
	Entries int `json:"entries"`
	// Hits are Gets that returned verified payload bytes.
	Hits int64 `json:"hits"`
	// Misses are Gets that found nothing (including breaker skips).
	Misses int64 `json:"misses"`
	// Writes are Puts that actually stored bytes.
	Writes int64 `json:"writes"`
	// Errors counts I/O failures (cumulative), from the breaker.
	Errors int64 `json:"errors"`
	// Quarantined counts artifacts that failed integrity or decode
	// checks and were moved aside (cumulative).
	Quarantined int64 `json:"quarantined"`
}

// device is the storage one tier fronts: the disk directory or the
// peer list. Devices move opaque bytes addressed by key alone;
// framing, quarantine counting and the breaker belong to the tier.
//
// Contracts: get returns ErrNotFound for a clean miss and must not
// return bytes the caller may mutate in place. put reports whether
// bytes were actually stored (a read-only device returns false, nil)
// and must copy data if it retains it beyond the call. All methods may
// be called concurrently.
type device interface {
	get(ctx context.Context, key Key) ([]byte, error)
	put(ctx context.Context, key Key, data []byte) (bool, error)
	// quarantine moves a corrupt artifact out of the load path, where
	// the device can.
	quarantine(key Key)
	// keys lists the artifacts the device holds, sorted, where
	// knowable (nil otherwise).
	keys() []Key
}

// tier is one link of the Store's chain. get verifies the integrity
// frame and put writes it, so corrupt bytes are quarantined and never
// decoded. The count-paced breaker gates every device operation:
// diskBreakerThreshold consecutive I/O failures open it, after which
// operations are skipped (get reports a miss, put reports not-written)
// except every diskProbeInterval-th, which runs for real as the
// half-open probe — one success re-closes the breaker. The pacing is
// by operation count, not wall clock, because tiers live inside the
// stage package where determinism is non-negotiable.
//
// The breaker sees the device's outcome before the frame is checked:
// a device that delivered bytes succeeded even when the bytes are
// corrupt, so corruption is quarantined, never counted as an I/O
// failure. A clean miss and a no-op write prove nothing about the
// device: they neither reset failures nor consume a probe slot, so
// missing-artifact probes cannot starve the real ones.
type tier struct {
	name string
	dev  device

	mu       sync.Mutex
	failures int   // consecutive I/O failures; guarded by mu
	degraded bool  // guarded by mu
	skipped  int   // ops skipped since the trip, paces probes; guarded by mu
	errors   int64 // cumulative I/O failures; guarded by mu

	hits        atomic.Int64
	misses      atomic.Int64
	writes      atomic.Int64
	quarantined atomic.Int64
}

// get returns key's verified bytes, both framed (the wire form the
// peer-fetch endpoint serves) and as the payload the codec decodes.
// While the breaker is open, skipped gets report a clean miss so the
// chain falls through to the next tier or to compute.
func (t *tier) get(ctx context.Context, key Key) (framed, payload []byte, err error) {
	if !t.allowed() {
		t.misses.Add(1)
		return nil, nil, ErrNotFound
	}
	data, err := t.dev.get(ctx, key)
	switch {
	case errors.Is(err, ErrNotFound):
		t.inconclusive()
		t.misses.Add(1)
		return nil, nil, err
	case err != nil:
		t.failed()
		return nil, nil, err
	}
	t.ok()
	if payload, err = Unframe(data); err != nil {
		t.quarantine(key)
		return nil, nil, fmt.Errorf("stage: corrupt artifact in %s tier: %w", t.name, err)
	}
	t.hits.Add(1)
	return data, payload, nil
}

// put frames payload and stores it. Failures are the tier's problem
// (the breaker counts them); the caller already holds the artifact in
// memory. While the breaker is open, skipped puts do nothing.
func (t *tier) put(ctx context.Context, key Key, payload []byte) {
	if !t.allowed() {
		return
	}
	written, err := t.dev.put(ctx, key, Frame(payload))
	switch {
	case err != nil:
		t.failed()
	case !written:
		t.inconclusive()
	default:
		t.ok()
		t.writes.Add(1)
	}
}

// quarantine counts a corrupt artifact — a failed frame check, or a
// decode failure above the frame — and moves it aside in the device.
func (t *tier) quarantine(key Key) {
	t.quarantined.Add(1)
	t.dev.quarantine(key)
}

// allowed reports whether this operation should touch the device.
// Closed breaker: always. Open breaker: only every
// diskProbeInterval-th call, which becomes the half-open probe — the
// operation runs for real and its outcome decides whether the breaker
// closes.
func (t *tier) allowed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.degraded {
		return true
	}
	t.skipped++
	if t.skipped >= diskProbeInterval {
		t.skipped = 0
		return true
	}
	return false
}

// ok records a successful operation: failures reset, and an open
// breaker closes (the probe succeeded; the device is back).
func (t *tier) ok() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failures = 0
	t.degraded = false
	t.skipped = 0
}

// inconclusive refunds a probe that proved nothing about the device —
// a clean miss or a no-op write admitted through an open breaker.
// Without the refund, missing-artifact probes would starve the real
// ones and a recovered device could stay degraded indefinitely.
func (t *tier) inconclusive() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.degraded {
		t.skipped = diskProbeInterval - 1
	}
}

// failed records an I/O failure (ENOSPC, EIO, a peer returning 5xx —
// not corruption, which quarantines instead). Enough in a row trip the
// breaker and the tier degrades to skip-with-probes.
func (t *tier) failed() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errors++
	t.failures++
	if t.failures >= diskBreakerThreshold {
		t.degraded = true
	}
}

// stats reports the tier's row.
func (t *tier) stats() TierStats {
	st := TierStats{
		State:       TierOK,
		Entries:     len(t.dev.keys()),
		Hits:        t.hits.Load(),
		Misses:      t.misses.Load(),
		Writes:      t.writes.Load(),
		Quarantined: t.quarantined.Load(),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st.Errors = t.errors
	if t.degraded {
		st.State = TierDegraded
	}
	return st
}

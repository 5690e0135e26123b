package stage

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// The two standard tier decorators. Every tier in a chain built by
// NewTierChain is wrapped Framed(Breakered(tier)): the breaker sits
// against the device so raw I/O outcomes drive it, and the frame layer
// sits on top so corruption is classified (quarantine) before it could
// ever be mistaken for an I/O failure.

// Framed wraps a tier with artifact integrity framing: Put prefixes
// the payload with its sha256 frame header, Get verifies and strips
// it. Bytes that fail verification — unframed bytes included — are
// quarantined in the underlying tier and reported as a CorruptError:
// never decoded, never counted as an I/O failure.
func Framed(b Backend) *FramedBackend { return &FramedBackend{inner: b} }

// FramedBackend is the integrity decorator; see Framed.
type FramedBackend struct {
	inner Backend

	hits        atomic.Int64
	misses      atomic.Int64
	writes      atomic.Int64
	quarantined atomic.Int64
}

// Name reports the wrapped tier's name.
func (f *FramedBackend) Name() string { return f.inner.Name() }

// Remote forwards the wrapped tier's remote marker.
func (f *FramedBackend) Remote() bool { return isRemote(f.inner) }

// Get returns ref's verified payload with the frame stripped.
func (f *FramedBackend) Get(ctx context.Context, ref Ref) ([]byte, error) {
	data, err := f.inner.Get(ctx, ref)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			f.misses.Add(1)
		}
		return nil, err
	}
	payload, err := unframe(data)
	if err != nil {
		return nil, f.quarantineCorrupt(ctx, ref, err)
	}
	f.hits.Add(1)
	return payload, nil
}

// GetFramed returns ref's verified bytes with the frame attached — the
// wire form the peer-fetch endpoint serves.
func (f *FramedBackend) GetFramed(ctx context.Context, ref Ref) ([]byte, error) {
	data, err := f.inner.Get(ctx, ref)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			f.misses.Add(1)
		}
		return nil, err
	}
	if _, err := unframe(data); err != nil {
		return nil, f.quarantineCorrupt(ctx, ref, err)
	}
	f.hits.Add(1)
	return data, nil
}

// quarantineCorrupt counts and forwards a quarantine, returning the
// CorruptError the caller reports.
func (f *FramedBackend) quarantineCorrupt(ctx context.Context, ref Ref, err error) error {
	f.quarantined.Add(1)
	quarantineTier(ctx, f.inner, ref)
	return &CorruptError{Tier: f.Name(), Err: err}
}

// Put frames payload and stores it in the wrapped tier.
func (f *FramedBackend) Put(ctx context.Context, ref Ref, payload []byte) (bool, error) {
	written, err := f.inner.Put(ctx, ref, Frame(payload))
	if written && err == nil {
		f.writes.Add(1)
	}
	return written, err
}

// Delete forwards to the wrapped tier.
func (f *FramedBackend) Delete(ctx context.Context, ref Ref) error {
	return f.inner.Delete(ctx, ref)
}

// Quarantine counts a caller-detected corruption (a decode failure
// above the frame layer) and forwards it down the stack.
func (f *FramedBackend) Quarantine(ctx context.Context, ref Ref) {
	f.quarantined.Add(1)
	quarantineTier(ctx, f.inner, ref)
}

// Len reports the wrapped tier's artifact count.
func (f *FramedBackend) Len() int { return f.inner.Len() }

// Stats merges this decorator's traffic counters into the wrapped
// tier's row.
func (f *FramedBackend) Stats() TierStats {
	st := f.inner.Stats()
	st.Hits += f.hits.Load()
	st.Misses += f.misses.Load()
	st.Writes += f.writes.Load()
	st.Quarantined += f.quarantined.Load()
	return st
}

// Breakered wraps a tier with the count-paced degradation breaker:
// diskBreakerThreshold consecutive I/O failures open it, after which
// operations are skipped (Get reports a miss, Put reports
// not-written) except every diskProbeInterval-th, which runs for real
// as the half-open probe — one success re-closes the breaker. The
// pacing is by operation count, not wall clock, because tiers live
// inside the stage package where determinism is non-negotiable.
//
// A clean miss (ErrNotFound) and a no-op write prove nothing about the
// device: they neither reset failures nor consume a probe slot, so
// missing-artifact probes cannot starve the real ones.
func Breakered(b Backend) *BreakeredBackend { return &BreakeredBackend{inner: b} }

// BreakeredBackend is the degradation decorator; see Breakered.
type BreakeredBackend struct {
	inner Backend

	mu       sync.Mutex
	failures int   // consecutive I/O failures; guarded by mu
	degraded bool  // guarded by mu
	skipped  int   // ops skipped since the trip, paces probes; guarded by mu
	errors   int64 // cumulative I/O failures; guarded by mu
}

// Name reports the wrapped tier's name.
func (b *BreakeredBackend) Name() string { return b.inner.Name() }

// Remote forwards the wrapped tier's remote marker.
func (b *BreakeredBackend) Remote() bool { return isRemote(b.inner) }

// allowed reports whether this operation should touch the tier.
// Closed breaker: always. Open breaker: only every
// diskProbeInterval-th call, which becomes the half-open probe — the
// operation runs for real and its outcome decides whether the breaker
// closes.
func (b *BreakeredBackend) allowed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.degraded {
		return true
	}
	b.skipped++
	if b.skipped >= diskProbeInterval {
		b.skipped = 0
		return true
	}
	return false
}

// ok records a successful operation: failures reset, and an open
// breaker closes (the probe succeeded; the tier is back).
func (b *BreakeredBackend) ok() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.degraded = false
	b.skipped = 0
}

// inconclusive refunds a probe that proved nothing about the tier — a
// clean miss or a no-op write admitted through an open breaker.
// Without the refund, missing-artifact probes would starve the real
// ones and a recovered tier could stay degraded indefinitely.
func (b *BreakeredBackend) inconclusive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.degraded {
		b.skipped = diskProbeInterval - 1
	}
}

// failed records an I/O failure (ENOSPC, EIO, a peer returning 5xx —
// not corruption, which quarantines instead). Enough in a row trip the
// breaker and the tier degrades to skip-with-probes.
func (b *BreakeredBackend) failed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.errors++
	b.failures++
	if b.failures >= diskBreakerThreshold {
		b.degraded = true
	}
}

// Get forwards to the wrapped tier, feeding the breaker. While the
// breaker is open, skipped Gets report a clean miss so the chain falls
// through to the next tier or to compute.
func (b *BreakeredBackend) Get(ctx context.Context, ref Ref) ([]byte, error) {
	if !b.allowed() {
		return nil, ErrNotFound
	}
	data, err := b.inner.Get(ctx, ref)
	switch {
	case err == nil:
		b.ok()
		return data, nil
	case errors.Is(err, ErrNotFound):
		b.inconclusive()
		return nil, err
	default:
		b.failed()
		return nil, err
	}
}

// Put forwards to the wrapped tier, feeding the breaker. While the
// breaker is open, skipped Puts report not-written — the artifact is
// already in memory upstream; the tier copy is an optimization.
func (b *BreakeredBackend) Put(ctx context.Context, ref Ref, data []byte) (bool, error) {
	if !b.allowed() {
		return false, nil
	}
	written, err := b.inner.Put(ctx, ref, data)
	switch {
	case err != nil:
		b.failed()
		return false, err
	case !written:
		b.inconclusive()
		return false, nil
	default:
		b.ok()
		return true, nil
	}
}

// Delete forwards to the wrapped tier without gating: deletes are
// rare, explicit, and their failure modes are the caller's to handle.
func (b *BreakeredBackend) Delete(ctx context.Context, ref Ref) error {
	return b.inner.Delete(ctx, ref)
}

// Quarantine forwards down the stack.
func (b *BreakeredBackend) Quarantine(ctx context.Context, ref Ref) {
	quarantineTier(ctx, b.inner, ref)
}

// Len reports the wrapped tier's artifact count.
func (b *BreakeredBackend) Len() int { return b.inner.Len() }

// Stats merges the breaker's state and error count into the wrapped
// tier's row.
func (b *BreakeredBackend) Stats() TierStats {
	st := b.inner.Stats()
	b.mu.Lock()
	defer b.mu.Unlock()
	st.Errors += b.errors
	if b.degraded {
		st.State = TierDegraded
	} else if st.State == "" {
		st.State = TierOK
	}
	return st
}

package server

import (
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// breakerThreshold is how many consecutive failures open a
	// circuit.
	breakerThreshold = 3
	// breakerCooldown is how long an open circuit waits before letting
	// one half-open probe through.
	breakerCooldown = 30 * time.Second
)

// breakerSet is a family of circuit breakers keyed by string — one per
// suite build ("suite:<name>") plus data-level breakers per degraded
// measurement source ("ref:<suite>", "target:<suite>/<machine>").
//
// Each breaker follows the classic three-state machine:
//
//	closed ── threshold consecutive failures ──> open
//	open ── cooldown elapsed, one probe allowed ──> half-open
//	half-open ── probe succeeds ──> closed
//	half-open ── probe fails ──> open (cooldown restarts)
//
// The clock is injected so tests can drive the cooldown
// deterministically instead of sleeping.
type breakerSet struct {
	now func() time.Time

	mu     sync.Mutex
	states map[string]*breakerState // guarded by mu
	trips  int64                    // cumulative closed->open transitions; guarded by mu
}

// breakerState is one key's breaker. All fields guarded by breakerSet.mu.
type breakerState struct {
	failures int // consecutive failures since the last success
	open     bool
	openedAt time.Time // start of the current cooldown window
	probing  bool      // a half-open probe is in flight
}

func newBreakerSet(now func() time.Time) *breakerSet {
	if now == nil {
		now = time.Now //fgbs:allow determinism breaker cooldowns pace recovery probes; no experiment result reads the clock
	}
	return &breakerSet{now: now, states: make(map[string]*breakerState)}
}

// allow reports whether a caller may attempt the guarded operation.
// Closed circuits always allow; open circuits allow exactly one
// half-open probe per cooldown window.
func (b *breakerSet) allow(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[key]
	if st == nil || !st.open {
		return true
	}
	if st.probing || b.now().Sub(st.openedAt) < breakerCooldown {
		return false
	}
	st.probing = true
	return true
}

// succeed closes the circuit (a successful attempt or probe).
func (b *breakerSet) succeed(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.states, key)
}

// fail records a failed attempt. The circuit opens after threshold
// consecutive failures; a failed half-open probe re-opens it and
// restarts the cooldown.
func (b *breakerSet) fail(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[key]
	if st == nil {
		st = &breakerState{}
		b.states[key] = st
	}
	st.failures++
	st.probing = false
	if !st.open && st.failures >= breakerThreshold {
		st.open = true
		b.trips++
	}
	if st.open {
		st.openedAt = b.now()
	}
}

// trip opens the circuit immediately, bypassing the failure threshold —
// used when an outage is directly observed in the data (a degraded
// profile) rather than inferred from repeated errors.
func (b *breakerSet) trip(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[key]
	if st == nil {
		st = &breakerState{}
		b.states[key] = st
	}
	st.failures++
	st.probing = false
	if !st.open {
		st.open = true
		b.trips++
	}
	st.openedAt = b.now()
}

// clearPrefix closes every breaker whose key starts with prefix (the
// per-target breakers of a suite that rebuilt cleanly).
func (b *breakerSet) clearPrefix(prefix string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k := range b.states {
		if strings.HasPrefix(k, prefix) {
			delete(b.states, k)
		}
	}
}

// retryIn reports how long until an open circuit admits its next
// probe (zero if closed or already due).
func (b *breakerSet) retryIn(key string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[key]
	if st == nil || !st.open {
		return 0
	}
	d := breakerCooldown - b.now().Sub(st.openedAt)
	if d < 0 {
		d = 0
	}
	return d
}

// breakerInfo is one breaker's externally visible state (healthz,
// metricz).
type breakerInfo struct {
	Key      string `json:"key"`
	State    string `json:"state"` // closed | open | half-open
	Failures int    `json:"failures"`
	// RetryInSeconds is the remaining cooldown of an open circuit.
	RetryInSeconds float64 `json:"retryInSeconds,omitempty"`
}

// snapshot returns every tracked breaker sorted by key, plus the
// cumulative trip count.
func (b *breakerSet) snapshot() ([]breakerInfo, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	infos := make([]breakerInfo, 0, len(b.states))
	for k, st := range b.states {
		info := breakerInfo{Key: k, State: "closed", Failures: st.failures}
		if st.open {
			info.State = "open"
			if st.probing {
				info.State = "half-open"
			}
			if d := breakerCooldown - now.Sub(st.openedAt); d > 0 {
				info.RetryInSeconds = d.Seconds()
			}
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos, b.trips
}

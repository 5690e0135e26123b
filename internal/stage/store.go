package stage

import (
	"bytes"
	"container/list"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
)

// bufPool recycles the scratch buffers artifact bytes are encoded
// into. Profile artifacts run to megabytes of JSON; without pooling,
// every persist allocates and grows a fresh buffer of that size.
// Codecs must not retain the readers or writers they are handed — the
// buffer behind them returns to the pool when the call ends, and
// tiers copy what they keep (see Backend's Put contract).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Codec serializes one stage's artifacts for the Store's byte tiers.
// Stages whose artifacts are not worth persisting (cheap to recompute,
// or referencing in-memory structures) resolve with a nil Codec and
// live only in the value LRU.
type Codec interface {
	// Filename is the artifact's name inside a local tier's directory.
	// Names should be qualified by the artifact's key (the profile
	// stage embeds a key prefix) so differently-keyed resolves never
	// share a file.
	Filename() string
	// Encode writes the artifact.
	Encode(w io.Writer, v any) error
	// Decode reads it back. Any error means "rebuild", never "fail".
	Decode(r io.Reader) (any, error)
	// Persist reports whether v should be written at all — the hook
	// that keeps degraded profiles off disk (a restart should retry the
	// measurements, not resurrect the outage).
	Persist(v any) bool
}

// Counters is one hit/miss row, either a per-stage breakdown entry or
// the store-wide total.
type Counters struct {
	// Hits served from the in-memory value LRU.
	Hits int64 `json:"hits"`
	// Joined resolves that coalesced onto another caller's in-flight
	// computation of the same key.
	Joined int64 `json:"joined"`
	// Misses that entered fill (tier probe, then compute).
	Misses int64 `json:"misses"`
	// Computes are misses no tier could satisfy: the stage's compute
	// function actually ran. Misses - Computes = misses served from a
	// byte tier (each tier's hits are under Stats.Tiers).
	Computes int64 `json:"computes"`
}

func (c *Counters) add(d Counters) {
	c.Hits += d.Hits
	c.Joined += d.Joined
	c.Misses += d.Misses
	c.Computes += d.Computes
}

// Stats is a Store snapshot for /metricz.
type Stats struct {
	Entries  int                  `json:"entries"`
	Capacity int                  `json:"capacity"`
	Total    Counters             `json:"total"`
	Stages   map[string]Counters  `json:"stages"`
	Tiers    map[string]TierStats `json:"tiers"`
}

// Tier health states reported in each tier's Stats row. A tier the
// store was not built with has no row at all.
const (
	// TierOK: the tier is serving normally.
	TierOK = "ok"
	// TierDegraded: the tier's breaker has tripped; the store serves
	// around it, probing the tier every diskProbeInterval-th
	// operation.
	TierDegraded = "degraded"
)

// Outcome reports how one Resolve was satisfied.
type Outcome struct {
	// Cached means compute did not run: the value came from the LRU,
	// from a coalesced in-flight computation, or from a byte tier.
	Cached bool
	// Tier names the byte tier that served the artifact ("" when it
	// came from the value LRU, a coalesced flight, or compute).
	Tier string
}

// diskBreakerThreshold is how many consecutive I/O failures trip a
// tier's breaker (mirrors the serving layer's
// DefaultBreakerThreshold).
const diskBreakerThreshold = 3

// diskProbeInterval is how many tier operations are skipped between
// half-open probes while a breaker is open.
const diskProbeInterval = 16

// Store memoizes stage artifacts on two planes. The value plane is an
// in-memory LRU over content addresses with per-key singleflight
// coalescing (concurrent resolves of the same key run compute once and
// share the outcome); artifacts are treated as immutable once stored —
// the same contract pipeline.Profile already carries — so values are
// shared, never copied. Beneath it, for stages with a Codec, sits an
// ordered chain of byte tiers (see Backend): a value miss probes the
// tiers top to bottom, a tier hit is decoded and its bytes promoted
// into every tier above, and a computed artifact is written through
// the whole chain.
type Store struct {
	cap   int
	tiers []Backend

	mu       sync.Mutex
	ll       *list.List            // front = most recently used; guarded by mu
	items    map[Key]*list.Element // guarded by mu
	inflight map[Key]*flight       // guarded by mu
	stages   map[string]*Counters  // guarded by mu
	refs     map[Key]Ref           // byte-tier names per resolved key; guarded by mu
}

// entry is one LRU slot.
type entry struct {
	key Key
	val any
}

// flight is one in-progress computation; done is closed when val/out/
// err are final.
type flight struct {
	done chan struct{}
	val  any
	out  Outcome
	err  error
}

// NewStore builds a store holding at most capacity artifacts in
// memory, persisting Codec-bearing stages under dir ("" disables the
// byte tiers). The dir form is the single-node configuration: one
// framed, breakered disk tier. Multi-tier chains come from
// NewTieredStore.
func NewStore(capacity int, dir string) *Store {
	var tiers []Backend
	if dir != "" {
		tiers = []Backend{Framed(Breakered(NewDiskBackend(dir)))}
	}
	return NewTieredStore(capacity, tiers)
}

// NewTieredStore builds a store resolving byte misses through tiers,
// in order (typically from NewTierChain). An empty chain disables the
// byte plane; Codec-bearing stages then live memory-only.
func NewTieredStore(capacity int, tiers []Backend) *Store {
	if capacity <= 0 {
		capacity = 1
	}
	return &Store{
		cap:      capacity,
		tiers:    tiers,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		inflight: make(map[Key]*flight),
		stages:   make(map[string]*Counters),
		refs:     make(map[Key]Ref),
	}
}

// Tiers returns the store's byte-tier chain, in resolve order.
func (s *Store) Tiers() []Backend {
	out := make([]Backend, len(s.tiers))
	copy(out, s.tiers)
	return out
}

// counterLocked returns stage's counter row, creating it on first use.
func (s *Store) counterLocked(stage string) *Counters {
	//fgbs:allow guardedby the *Locked naming contract: every caller holds s.mu
	c := s.stages[stage]
	if c == nil {
		c = &Counters{}
		//fgbs:allow guardedby the *Locked naming contract: every caller holds s.mu
		s.stages[stage] = c
	}
	return c
}

// Resolve returns the artifact stored under key, computing and storing
// it on a miss. Exactly one caller runs compute per key at a time;
// concurrent resolves of the same key wait for that caller's outcome.
// A failed compute is not stored — the flight is dropped so a later
// Resolve retries. ctx bounds this caller's wait and is the context
// compute runs under; a caller whose ctx expires while coalesced gives
// up alone, without aborting the computing caller.
func (s *Store) Resolve(ctx context.Context, stage string, key Key, codec Codec, compute func(context.Context) (any, error)) (any, Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, Outcome{}, err
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.counterLocked(stage).Hits++
		v := el.Value.(*entry).val
		s.mu.Unlock()
		return v, Outcome{Cached: true}, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.counterLocked(stage).Joined++
		s.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, Outcome{}, ctx.Err()
		}
		if f.err != nil {
			return nil, Outcome{}, f.err
		}
		return f.val, Outcome{Cached: true, Tier: f.out.Tier}, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.counterLocked(stage).Misses++
	s.mu.Unlock()

	// finish publishes the flight's outcome exactly once: drop the
	// flight (so a failure can retry), store a success, wake waiters.
	finish := func() {
		s.mu.Lock()
		delete(s.inflight, key)
		if f.err == nil {
			if el, ok := s.items[key]; ok {
				el.Value.(*entry).val = f.val
				s.ll.MoveToFront(el)
			} else {
				s.items[key] = s.ll.PushFront(&entry{key: key, val: f.val})
				for s.ll.Len() > s.cap {
					last := s.ll.Back()
					s.ll.Remove(last)
					delete(s.items, last.Value.(*entry).key)
				}
			}
		}
		s.mu.Unlock()
		close(f.done)
	}
	// finish must run even when compute panics — otherwise the dead
	// flight stays in s.inflight and every later Resolve of the key
	// blocks on it until its own ctx expires, wedging the key for the
	// process lifetime. The panic is re-propagated after waiters are
	// handed an error, so they fail fast and can retry.
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.val, f.out = nil, Outcome{}
				f.err = fmt.Errorf("stage: %s compute panicked: %v", stage, r)
				finish()
				panic(r)
			}
			finish()
		}()
		f.val, f.out, f.err = s.fill(ctx, stage, key, codec, compute)
	}()
	return f.val, f.out, f.err
}

// refFor derives the byte-tier Ref for one codec-bearing resolve and
// records it so FetchFramed can serve the artifact later.
func (s *Store) refFor(key Key, codec Codec) Ref {
	ref := Ref{Key: key, Name: codec.Filename()}
	s.mu.Lock()
	s.refs[key] = ref
	s.mu.Unlock()
	return ref
}

// fill satisfies a miss: the byte tiers first (when the stage has a
// Codec), then compute, writing the fresh artifact through the chain.
func (s *Store) fill(ctx context.Context, stage string, key Key, codec Codec, compute func(context.Context) (any, error)) (any, Outcome, error) {
	tiered := codec != nil && len(s.tiers) > 0
	var ref Ref
	if tiered {
		ref = s.refFor(key, codec)
		for i, tier := range s.tiers {
			payload, err := tier.Get(ctx, ref)
			if err != nil {
				// A miss, an I/O failure, or corruption (already
				// quarantined and counted by the tier's decorators):
				// fall through to the next tier, then to compute — the
				// artifact can always be regenerated.
				continue
			}
			v, err := codec.Decode(bytes.NewReader(payload))
			if err != nil {
				// The frame verified but the codec rejects the payload
				// (a stale schema): quarantine in the serving tier and
				// keep falling through.
				quarantineTier(ctx, tier, ref)
				continue
			}
			s.promote(ctx, ref, payload, i)
			return v, Outcome{Cached: true, Tier: tier.Name()}, nil
		}
	}
	v, err := compute(ctx)
	if err != nil {
		return nil, Outcome{}, err
	}
	s.mu.Lock()
	s.counterLocked(stage).Computes++
	s.mu.Unlock()
	if tiered && codec.Persist(v) {
		s.writeThrough(ctx, ref, codec, v)
	}
	return v, Outcome{}, nil
}

// promote copies a tier hit's bytes into every tier above it, so the
// next resolve finds the artifact at the fastest tier that will hold
// it. Promotion failures are the receiving tier's problem (its breaker
// saw them); the resolve already has its artifact.
func (s *Store) promote(ctx context.Context, ref Ref, payload []byte, hit int) {
	for i := hit - 1; i >= 0; i-- {
		s.tiers[i].Put(ctx, ref, payload)
	}
}

// writeThrough encodes a computed artifact once and offers it to every
// tier. Failures feed the per-tier breakers but never fail the resolve
// (the artifact is already in memory; tier copies are an
// optimization). A failed encode writes nowhere — an unencodable
// artifact is not a tier failure.
func (s *Store) writeThrough(ctx context.Context, ref Ref, codec Codec, v any) {
	// Encode into a pooled buffer, then hand the bytes to the tiers:
	// the encoder's many small writes land in memory, a failed encode
	// never reaches a device, and the frame header needs the payload's
	// checksum before the first byte leaves the process.
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if err := codec.Encode(buf, v); err != nil {
		return
	}
	payload := buf.Bytes()
	for _, tier := range s.tiers {
		tier.Put(ctx, ref, payload)
	}
}

// FetchFramed returns the framed bytes of a previously resolved
// artifact — the peer-fetch endpoint's read path. Only keys this
// store has resolved through a Codec are servable (the Ref carries the
// tier filename); remote tiers are skipped so peers never bounce a
// fetch back and forth. ErrNotFound means this node cannot serve the
// key.
func (s *Store) FetchFramed(ctx context.Context, key Key) ([]byte, error) {
	s.mu.Lock()
	ref, ok := s.refs[key]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	for _, tier := range s.tiers {
		if isRemote(tier) {
			continue
		}
		if fg, ok := tier.(framedGetter); ok {
			if data, err := fg.GetFramed(ctx, ref); err == nil {
				return data, nil
			}
			continue
		}
		// A bare tier holds raw payload bytes; frame them for the wire.
		if payload, err := tier.Get(ctx, ref); err == nil {
			return Frame(payload), nil
		}
	}
	return nil, ErrNotFound
}

// Keys lists the content addresses this store can serve over
// FetchFramed, sorted for determinism — the artifact index a peer (or
// an operator) enumerates.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	keys := make([]Key, 0, len(s.refs))
	for k := range s.refs {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Put stores an externally produced artifact under key, replacing any
// existing value — the adoption path for profiles loaded from a CLI
// -cache file, which must win over whatever a rebuild would produce.
func (s *Store) Put(key Key, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*entry).val = v
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&entry{key: key, val: v})
	for s.ll.Len() > s.cap {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.items, last.Value.(*entry).key)
	}
}

// Delete evicts key from the value LRU; byte-tier artifacts, when any,
// are left alone. Callers use it to serve an artifact once without
// memoizing it — a later Resolve of the same key recomputes or reloads
// from a tier.
func (s *Store) Delete(key Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.Remove(el)
		delete(s.items, key)
	}
}

// Get peeks at the value LRU without counting a hit or touching
// recency.
func (s *Store) Get(key Key) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).val, true
}

// Len returns the current in-memory artifact count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Stats snapshots the counters: the value plane's per-stage rows plus
// one row per byte tier.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Entries:  s.ll.Len(),
		Capacity: s.cap,
		Stages:   make(map[string]Counters, len(s.stages)),
	}
	for name, c := range s.stages {
		st.Stages[name] = *c
		st.Total.add(*c)
	}
	s.mu.Unlock()
	st.Tiers = make(map[string]TierStats, len(s.tiers))
	for _, t := range s.tiers {
		st.Tiers[t.Name()] = t.Stats()
	}
	return st
}

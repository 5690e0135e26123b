package stage

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"
)

// bufPool recycles the scratch buffers artifact bytes are encoded
// into; without pooling, every persist allocates and grows a fresh
// buffer of the artifact's size. Codecs must not retain the slices
// they are handed — the buffer returns to the pool when the call ends,
// and tiers copy what they keep (see Backend's Put contract).
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

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
	// Encode appends the artifact's bytes to dst and returns the
	// extended slice.
	Encode(dst []byte, v any) ([]byte, error)
	// Decode reads an artifact back from the payload a tier served.
	// data is only valid during the call: a codec copies what it
	// keeps. Any error means "rebuild", never "fail".
	Decode(data []byte) (any, error)
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
	tiers []*FramedBackend

	mu       sync.Mutex
	ll       *list.List            // front = most recently used; guarded by mu
	items    map[Key]*list.Element // guarded by mu
	inflight map[Key]*flight       // guarded by mu
	stages   map[string]*Counters  // guarded by mu
	refs     map[Key]Ref           // keys a local tier holds, for FetchFramed; guarded by mu
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
// memory. Codec-bearing stages also resolve through byte tiers derived
// from the two ways a profile is shared: a disk tier under dir when dir
// is set, then a peer tier fetching from peers (base URLs) when any
// are given. Each tier is wrapped Framed(Breakered(tier)). With
// neither, the byte plane is off and every stage lives memory-only.
func NewStore(capacity int, dir string, peers ...string) *Store {
	if capacity <= 0 {
		capacity = 1
	}
	var tiers []*FramedBackend
	if dir != "" {
		tiers = append(tiers, Framed(Breakered(NewDiskBackend(dir))))
	}
	if len(peers) > 0 {
		tiers = append(tiers, Framed(Breakered(NewHTTPBackend(peers))))
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

// servable records that a local tier holds ref's bytes, so
// FetchFramed (and the Keys index) can serve the artifact.
func (s *Store) servable(ref Ref) {
	s.mu.Lock()
	s.refs[ref.Key] = ref
	s.mu.Unlock()
}

// fill satisfies a miss: the byte tiers first (when the stage has a
// Codec), then compute, writing the fresh artifact through the chain.
func (s *Store) fill(ctx context.Context, stage string, key Key, codec Codec, compute func(context.Context) (any, error)) (any, Outcome, error) {
	tiered := codec != nil && len(s.tiers) > 0
	var ref Ref
	if tiered {
		ref = Ref{Key: key, Name: codec.Filename()}
		for i, tier := range s.tiers {
			payload, err := tier.Get(ctx, ref)
			if err != nil {
				// A miss, an I/O failure, or corruption (already
				// quarantined and counted by the tier's decorators):
				// fall through to the next tier, then to compute — the
				// artifact can always be regenerated.
				continue
			}
			v, err := codec.Decode(payload)
			if err != nil {
				// The frame verified but the codec rejects the payload
				// (a stale schema): quarantine in the serving tier and
				// keep falling through.
				tier.Quarantine(ctx, ref)
				continue
			}
			if tier.Name() != TierPeer {
				s.servable(ref)
			}
			s.put(ctx, s.tiers[:i], ref, payload)
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

// put offers payload to tiers — the ones above a hit (promotion, so
// the next resolve finds the artifact at the fastest tier that will
// hold it) or the whole chain (write-through). Failures are the
// receiving tier's problem (its breaker saw them); the resolve already
// has its artifact. The peer tier is read-only, so a tier that reports
// the write is local and the key becomes servable.
func (s *Store) put(ctx context.Context, tiers []*FramedBackend, ref Ref, payload []byte) {
	for _, tier := range tiers {
		if written, err := tier.Put(ctx, ref, payload); written && err == nil {
			s.servable(ref)
		}
	}
}

// writeThrough encodes a computed artifact once and offers it to every
// tier. Failures feed the per-tier breakers but never fail the resolve
// (the artifact is already in memory; tier copies are an
// optimization). A failed encode writes nowhere — an unencodable
// artifact is not a tier failure.
func (s *Store) writeThrough(ctx context.Context, ref Ref, codec Codec, v any) {
	// Encode into a pooled buffer, then hand the bytes to the tiers: a
	// failed encode never reaches a device, and the frame header needs
	// the payload's checksum before the first byte leaves the process.
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	payload, err := codec.Encode((*buf)[:0], v)
	*buf = payload[:0]
	if err != nil {
		return
	}
	s.put(ctx, s.tiers, ref, payload)
}

// FetchFramed returns the framed bytes of a previously resolved
// artifact — the peer-fetch endpoint's read path. Only keys a local
// tier holds are servable (the Ref carries the tier filename); the
// peer tier is skipped so two daemons pointed at each other never
// bounce a fetch back and forth. ErrNotFound means this node cannot
// serve the key.
func (s *Store) FetchFramed(ctx context.Context, key Key) ([]byte, error) {
	s.mu.Lock()
	ref, ok := s.refs[key]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	for _, tier := range s.tiers {
		if tier.Name() == TierPeer {
			continue
		}
		if data, err := tier.GetFramed(ctx, ref); err == nil {
			return data, nil
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

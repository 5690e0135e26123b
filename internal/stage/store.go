package stage

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// bufPool recycles the scratch buffers artifact bytes are encoded
// into; without pooling, every persist allocates and grows a fresh
// buffer of the artifact's size. Codecs must not retain the slices
// they are handed — the buffer returns to the pool when the call ends,
// and devices copy what they keep (see device's put contract).
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// Codec serializes one stage's artifacts for the Store's byte tiers,
// which address the bytes by the resolve's key alone. Stages whose
// artifacts are not worth persisting (cheap to recompute, or
// referencing in-memory structures) resolve with a nil Codec and live
// only in the value LRU.
type Codec interface {
	// Encode appends the artifact's bytes to dst and returns the
	// extended slice.
	Encode(dst []byte, v any) ([]byte, error)
	// Decode reads an artifact back from the payload a tier served.
	// data is only valid during the call: a codec copies what it
	// keeps. Any error means "rebuild", never "fail".
	Decode(data []byte) (any, error)
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
	// function ran and returned, with or without an error. Misses -
	// Computes = misses served from a byte tier (each tier's hits are
	// under Stats.Tiers).
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
	// Cached means this caller's compute did not run: the value came
	// from the LRU, from a coalesced in-flight computation (whose error,
	// if it failed, the caller shares), or from a byte tier.
	Cached bool
	// Tier names the byte tier that served the artifact ("" when it
	// came from the value LRU, a coalesced flight, or compute).
	Tier string
}

// diskBreakerThreshold is how many consecutive I/O failures trip a
// tier's breaker (mirrors the serving layer's suite-breaker threshold).
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
// ordered chain of byte tiers (see tier): a value miss probes the
// tiers top to bottom, a tier hit is decoded and its bytes promoted
// into every tier above, and a computed artifact is written through
// the whole chain.
type Store struct {
	cap   int
	tiers []*tier
	disk  *tier // the disk tier, which FetchFramed and Keys read; nil without a directory

	mu       sync.Mutex
	ll       *list.List            // front = most recently used; guarded by mu
	items    map[Key]*list.Element // guarded by mu
	inflight map[Key]*flight       // guarded by mu
	stages   map[string]*Counters  // guarded by mu
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
// are given. With neither, the byte plane is off and every stage lives
// memory-only.
func NewStore(capacity int, dir string, peers ...string) *Store {
	if capacity <= 0 {
		capacity = 1
	}
	s := &Store{
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		inflight: make(map[Key]*flight),
		stages:   make(map[string]*Counters),
	}
	if dir != "" {
		s.disk = &tier{name: TierDisk, dev: &diskDevice{dir: dir}}
		s.tiers = append(s.tiers, s.disk)
	}
	if len(peers) > 0 {
		s.tiers = append(s.tiers, &tier{name: TierPeer, dev: newHTTPBackend(peers)})
	}
	return s
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
// it on a miss. The value plane treats key as opaque: any string that
// names one value will do, and a memory-only store (fgbsd's rendered
// answers) is keyed by plain query strings. Only the byte tiers need
// a Valid digest, because a key names a file there and travels to
// peers; a Codec-bearing stage resolves under one, and FetchFramed
// rejects any other. Exactly one caller runs compute per key at a time;
// concurrent resolves of the same key wait for that caller's outcome.
// A failed compute is stored nowhere, neither in the value LRU nor in
// a byte tier: its coalesced waiters get the same error, and a later
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
		return f.val, Outcome{Cached: true, Tier: f.out.Tier}, f.err
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
		// The key cannot be in items: Resolve opened this flight
		// only after missing there, and the flight is the key's only
		// writer.
		if f.err == nil {
			s.items[key] = s.ll.PushFront(&entry{key: key, val: f.val})
			for s.ll.Len() > s.cap {
				last := s.ll.Back()
				s.ll.Remove(last)
				delete(s.items, last.Value.(*entry).key)
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

// fill satisfies a miss: the byte tiers first (when the stage has a
// Codec), then compute, writing the fresh artifact through the chain.
func (s *Store) fill(ctx context.Context, stage string, key Key, codec Codec, compute func(context.Context) (any, error)) (any, Outcome, error) {
	tiered := codec != nil && len(s.tiers) > 0
	if tiered {
		for i, t := range s.tiers {
			_, payload, err := t.get(ctx, key)
			if err != nil {
				// A miss, an I/O failure, or corruption (already
				// quarantined and counted by the tier):
				// fall through to the next tier, then to compute — the
				// artifact can always be regenerated.
				continue
			}
			v, err := codec.Decode(payload)
			if err != nil {
				// The frame verified but the codec rejects the payload
				// (a stale schema): quarantine in the serving tier and
				// keep falling through.
				t.quarantine(key)
				continue
			}
			s.put(ctx, s.tiers[:i], key, payload)
			return v, Outcome{Cached: true, Tier: t.name}, nil
		}
	}
	v, err := compute(ctx)
	s.mu.Lock()
	s.counterLocked(stage).Computes++
	s.mu.Unlock()
	if err != nil {
		return nil, Outcome{}, err
	}
	if tiered {
		s.writeThrough(ctx, key, codec, v)
	}
	return v, Outcome{}, nil
}

// put offers payload to tiers — the ones above a hit (promotion, so
// the next resolve finds the artifact at the fastest tier that will
// hold it) or the whole chain (write-through). Failures are the
// receiving tier's problem (its breaker saw them); the resolve already
// has its artifact.
func (s *Store) put(ctx context.Context, tiers []*tier, key Key, payload []byte) {
	for _, t := range tiers {
		t.put(ctx, key, payload)
	}
}

// writeThrough encodes a computed artifact once and offers it to every
// tier. Failures feed the per-tier breakers but never fail the resolve
// (the artifact is already in memory; tier copies are an
// optimization). A failed encode writes nowhere — an unencodable
// artifact is not a tier failure.
func (s *Store) writeThrough(ctx context.Context, key Key, codec Codec, v any) {
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
	s.put(ctx, s.tiers, key, payload)
}

// FetchFramed returns the framed bytes the disk tier holds under key
// — the peer-fetch endpoint's read path. It reads through the tier, so
// the frame check, quarantine and breaker apply as on a resolve, and
// it serves any key the directory holds, whether or not this process
// resolved it. The peer tier is never asked, so two daemons pointed at
// each other never bounce a fetch back and forth. Every failure,
// including a malformed key and a store without a directory, is
// ErrNotFound: this node cannot serve the key.
func (s *Store) FetchFramed(ctx context.Context, key Key) ([]byte, error) {
	if s.disk == nil || !key.Valid() {
		return nil, ErrNotFound
	}
	framed, _, err := s.disk.get(ctx, key)
	if err != nil {
		return nil, ErrNotFound
	}
	return framed, nil
}

// Keys lists the content addresses this store can serve over
// FetchFramed — the artifact index a peer (or an operator)
// enumerates: every artifact file in the disk tier's directory,
// sorted. A store without a directory lists none.
func (s *Store) Keys() []Key {
	if s.disk == nil {
		return nil
	}
	return s.disk.dev.keys()
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
		st.Tiers[t.name] = t.stats()
	}
	return st
}

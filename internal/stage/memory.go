package stage

import (
	"container/list"
	"context"
	"sync"
)

// MemoryBackend is the in-memory byte tier: an LRU over encoded
// artifact bytes, keyed by content address. It is the fast front of a
// chain whose lower tiers are slow (disk, peer) — a promotion target,
// never an authority — so eviction is silent and Len-bounded.
type MemoryBackend struct {
	cap int

	mu    sync.Mutex
	ll    *list.List            // front = most recently used; guarded by mu
	items map[Key]*list.Element // guarded by mu
}

// memEntry is one LRU slot of the byte tier.
type memEntry struct {
	key  Key
	data []byte
}

// NewMemoryBackend builds a memory tier holding at most capacity
// artifacts.
func NewMemoryBackend(capacity int) *MemoryBackend {
	if capacity <= 0 {
		capacity = 1
	}
	return &MemoryBackend{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[Key]*list.Element),
	}
}

// Name identifies the tier.
func (m *MemoryBackend) Name() string { return TierMemory }

// Get returns the stored bytes for ref.Key, refreshing its recency.
func (m *MemoryBackend) Get(ctx context.Context, ref Ref) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[ref.Key]
	if !ok {
		return nil, ErrNotFound
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memEntry).data, nil
}

// Put stores a copy of data under ref.Key, evicting the least recently
// used entries past capacity.
func (m *MemoryBackend) Put(ctx context.Context, ref Ref, data []byte) (bool, error) {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[ref.Key]; ok {
		el.Value.(*memEntry).data = cp
		m.ll.MoveToFront(el)
		return true, nil
	}
	m.items[ref.Key] = m.ll.PushFront(&memEntry{key: ref.Key, data: cp})
	for m.ll.Len() > m.cap {
		last := m.ll.Back()
		m.ll.Remove(last)
		delete(m.items, last.Value.(*memEntry).key)
	}
	return true, nil
}

// Delete drops ref.Key from the tier.
func (m *MemoryBackend) Delete(ctx context.Context, ref Ref) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[ref.Key]; ok {
		m.ll.Remove(el)
		delete(m.items, ref.Key)
	}
	return nil
}

// Quarantine drops the corrupt entry — there is nothing on disk to
// keep for forensics, and dropping it reopens the slot for a clean
// promotion.
func (m *MemoryBackend) Quarantine(ctx context.Context, ref Ref) {
	m.Delete(ctx, ref)
}

// Len returns the current artifact count.
func (m *MemoryBackend) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// Stats reports the tier's base row; traffic counters come from the
// decorators.
func (m *MemoryBackend) Stats() TierStats {
	return TierStats{State: TierOK, Entries: m.Len()}
}

package stage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyDeterministic(t *testing.T) {
	build := func() Key {
		return NewKey("profile", 1).
			Str("nr").Strs([]string{"a", "b"}).Int(-3).Uint64(7).
			Float(0.25).Bool(true).Upstream(Key("abc")).Key()
	}
	if build() != build() {
		t.Fatal("identical builder sequences produced different keys")
	}
}

func TestKeySensitivity(t *testing.T) {
	base := func() *KeyBuilder {
		return NewKey("profile", 1).
			Str("nr").Strs([]string{"a", "b"}).Int(-3).Uint64(7).
			Float(0.25).Bool(true).Upstream(Key("abc"))
	}
	ref := base().Key()
	variants := map[string]Key{
		"stage name": NewKey("cluster", 1).
			Str("nr").Strs([]string{"a", "b"}).Int(-3).Uint64(7).
			Float(0.25).Bool(true).Upstream(Key("abc")).Key(),
		"stage version": NewKey("profile", 2).
			Str("nr").Strs([]string{"a", "b"}).Int(-3).Uint64(7).
			Float(0.25).Bool(true).Upstream(Key("abc")).Key(),
		"string": NewKey("profile", 1).
			Str("nas").Strs([]string{"a", "b"}).Int(-3).Uint64(7).
			Float(0.25).Bool(true).Upstream(Key("abc")).Key(),
		"string slice order": NewKey("profile", 1).
			Str("nr").Strs([]string{"b", "a"}).Int(-3).Uint64(7).
			Float(0.25).Bool(true).Upstream(Key("abc")).Key(),
		"int":          base().Int(4).Key(),
		"uint64":       base().Uint64(8).Key(),
		"float":        base().Float(0.5).Key(),
		"bool":         base().Bool(false).Key(),
		"upstream key": base().Upstream(Key("abd")).Key(),
	}
	seen := map[Key]string{ref: "reference"}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s variant collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyBoundaryCollisions pins the length-prefix framing: adjacent
// fields must not collide by concatenation, and a string slice must not
// collide with the same bytes split differently.
func TestKeyBoundaryCollisions(t *testing.T) {
	if a, b := NewKey("s", 1).Str("ab").Str("c").Key(), NewKey("s", 1).Str("a").Str("bc").Key(); a == b {
		t.Error(`Str("ab")+Str("c") collides with Str("a")+Str("bc")`)
	}
	if a, b := NewKey("s", 1).Strs([]string{"ab", "c"}).Key(), NewKey("s", 1).Strs([]string{"a", "bc"}).Key(); a == b {
		t.Error(`Strs{"ab","c"} collides with Strs{"a","bc"}`)
	}
	if a, b := NewKey("s", 1).Strs(nil).Str("x").Key(), NewKey("s", 1).Strs([]string{"x"}).Key(); a == b {
		t.Error("empty Strs followed by Str collides with one-element Strs")
	}
	if a, b := NewKey("s", 1).Str("\x00").Key(), NewKey("s", 1).Uint64(0).Key(); a == b {
		t.Error("type tags do not separate Str from Uint64")
	}
	raw := func(s string) func([]byte) []byte {
		return func(dst []byte) []byte { return append(dst, s...) }
	}
	if a, b := NewKey("s", 1).Append(raw("ab")).Append(raw("c")).Key(), NewKey("s", 1).Append(raw("a")).Append(raw("bc")).Key(); a == b {
		t.Error(`Append("ab")+Append("c") collides with Append("a")+Append("bc")`)
	}
	if a, b := NewKey("s", 1).Append(raw("x")).Key(), NewKey("s", 1).Str("x").Key(); a == b {
		t.Error("type tags do not separate Append from Str")
	}
}

func testKey(i int) Key {
	return NewKey("test", 1).Int(i).Key()
}

func TestStoreResolveMemoizes(t *testing.T) {
	s := NewStore(4, "")
	calls := 0
	compute := func(context.Context) (any, error) {
		calls++
		return "artifact", nil
	}
	ctx := context.Background()
	v, out, err := s.Resolve(ctx, "test", testKey(1), nil, compute)
	if err != nil || v != "artifact" {
		t.Fatalf("first resolve: v=%v err=%v", v, err)
	}
	if out.Cached {
		t.Error("first resolve reported Cached")
	}
	v, out, err = s.Resolve(ctx, "test", testKey(1), nil, compute)
	if err != nil || v != "artifact" {
		t.Fatalf("second resolve: v=%v err=%v", v, err)
	}
	if !out.Cached || out.Tier != "" {
		t.Errorf("second resolve outcome = %+v, want memory hit", out)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := s.Stats()
	if st.Total.Hits != 1 || st.Total.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st.Total)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(2, "")
	ctx := context.Background()
	resolve := func(i int) {
		t.Helper()
		if _, _, err := s.Resolve(ctx, "test", testKey(i), nil, func(context.Context) (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	resolve(1)
	resolve(2)
	resolve(1) // touch 1 so 2 is the LRU victim
	resolve(3) // evicts 2
	if _, ok := s.Get(testKey(2)); ok {
		t.Error("key 2 survived eviction")
	}
	for _, i := range []int{1, 3} {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Errorf("key %d missing after eviction round", i)
		}
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore(4, "")
	ctx := context.Background()
	calls := 0
	compute := func(context.Context) (any, error) {
		calls++
		return calls, nil
	}
	if _, _, err := s.Resolve(ctx, "test", testKey(1), nil, compute); err != nil {
		t.Fatal(err)
	}
	s.Delete(testKey(1))
	s.Delete(testKey(1)) // deleting an absent key is a no-op
	v, out, err := s.Resolve(ctx, "test", testKey(1), nil, compute)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Error("resolve after Delete still served from cache")
	}
	if v != 2 || calls != 2 {
		t.Errorf("v=%v calls=%d, want recompute after Delete", v, calls)
	}
}

func TestStoreFailedComputeRetries(t *testing.T) {
	s := NewStore(4, "")
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	if _, _, err := s.Resolve(ctx, "test", testKey(1), nil, func(context.Context) (any, error) {
		calls++
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, out, err := s.Resolve(ctx, "test", testKey(1), nil, func(context.Context) (any, error) {
		calls++
		return "ok", nil
	})
	if err != nil || v != "ok" || out.Cached {
		t.Errorf("retry after failure: v=%v out=%+v err=%v", v, out, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2", calls)
	}
}

func TestStoreCanceledContext(t *testing.T) {
	s := NewStore(4, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Resolve(ctx, "test", testKey(1), nil, func(context.Context) (any, error) {
		t.Error("compute ran under canceled context")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStoreSingleflight pins the coalescing contract under the race
// detector: many concurrent resolves of one key run compute exactly
// once and all observe the same artifact.
func TestStoreSingleflight(t *testing.T) {
	s := NewStore(4, "")
	ctx := context.Background()
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	vals := make([]any, waiters)
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], _, errs[0] = s.Resolve(ctx, "test", testKey(1), nil, func(context.Context) (any, error) {
			calls.Add(1)
			close(started)
			<-release
			return "shared", nil
		})
	}()
	<-started // the flight is in progress; every later resolve must join it
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = s.Resolve(ctx, "test", testKey(1), nil, func(context.Context) (any, error) {
				calls.Add(1)
				return "rogue", nil
			})
		}(i)
	}
	// Let the joiners enqueue, then finish the flight. Joiners that have
	// not reached the store yet will land as plain memory hits — either
	// way compute must run exactly once.
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil || vals[i] != "shared" {
			t.Fatalf("waiter %d: v=%v err=%v", i, vals[i], errs[i])
		}
	}
	st := s.Stats()
	if st.Total.Misses != 1 {
		t.Errorf("stats = %+v, want exactly 1 miss", st.Total)
	}
	if st.Total.Hits+st.Total.Joined != waiters-1 {
		t.Errorf("stats = %+v, want %d hits+joined", st.Total, waiters-1)
	}
}

// TestStoreCoalescedWaiterHonorsOwnContext pins that a joiner whose
// context expires gives up alone without aborting the computing caller.
func TestStoreCoalescedWaiterHonorsOwnContext(t *testing.T) {
	s := NewStore(4, "")
	started := make(chan struct{})
	release := make(chan struct{})
	computeDone := make(chan error, 1)
	go func() {
		_, _, err := s.Resolve(context.Background(), "test", testKey(1), nil, func(context.Context) (any, error) {
			close(started)
			<-release
			return "slow", nil
		})
		computeDone <- err
	}()
	<-started
	joinCtx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Resolve(joinCtx, "test", testKey(1), nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled joiner err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-computeDone; err != nil {
		t.Fatalf("computing caller failed after joiner canceled: %v", err)
	}
	if v, ok := s.Get(testKey(1)); !ok || v != "slow" {
		t.Errorf("artifact after flight = %v, %v; want slow, true", v, ok)
	}
}

// TestStoreResolvePanicSafety pins that a panicking compute does not
// wedge its key: the panic propagates to the computing caller, a
// coalesced waiter receives an error instead of blocking forever, and
// a later Resolve of the same key runs a fresh compute.
func TestStoreResolvePanicSafety(t *testing.T) {
	s := NewStore(4, "")
	ctx := context.Background()
	entered := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		s.Resolve(ctx, "test", testKey(1), nil, func(context.Context) (any, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered

	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := s.Resolve(ctx, "test", testKey(1), nil, func(context.Context) (any, error) {
			return "rogue", nil
		})
		waiterErr <- err
	}()
	// Wait until the second resolve has actually joined the flight, so
	// it exercises the coalesced-waiter path, then let compute panic.
	for s.Stats().Total.Joined == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	if r := <-panicked; r == nil {
		t.Fatal("compute panic did not propagate to the computing caller")
	}
	if err := <-waiterErr; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("coalesced waiter err = %v, want a compute-panicked error", err)
	}

	// The key must not be wedged: a fresh Resolve computes normally.
	retryCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	v, out, err := s.Resolve(retryCtx, "test", testKey(1), nil, func(context.Context) (any, error) {
		return "recovered", nil
	})
	if err != nil || v != "recovered" || out.Cached {
		t.Fatalf("resolve after panic: v=%v out=%+v err=%v, want fresh compute", v, out, err)
	}
}

// testCodec persists string artifacts as plain text.
type testCodec struct{}

// artPath is the disk tier's file for key under dir.
func artPath(dir string, key Key) string {
	return (&diskDevice{dir: dir}).path(key)
}

func (c testCodec) Encode(dst []byte, v any) ([]byte, error) {
	return fmt.Append(dst, v), nil
}

func (c testCodec) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, errors.New("empty artifact")
	}
	return string(data), nil
}

func TestStoreDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	codec := testCodec{}
	ctx := context.Background()
	calls := 0
	compute := func(context.Context) (any, error) {
		calls++
		return "persisted", nil
	}

	cold := NewStore(4, dir)
	if _, out, err := cold.Resolve(ctx, "test", testKey(1), codec, compute); err != nil || out.Cached {
		t.Fatalf("cold resolve: out=%+v err=%v", out, err)
	}
	if st := cold.Stats(); st.Tiers[TierDisk].Writes != 1 {
		t.Errorf("cold disk tier = %+v, want 1 write", st.Tiers[TierDisk])
	}

	// A fresh store over the same directory — a process restart — must
	// satisfy the miss from disk without recomputing.
	warm := NewStore(4, dir)
	v, out, err := warm.Resolve(ctx, "test", testKey(1), codec, compute)
	if err != nil || v != "persisted" {
		t.Fatalf("warm resolve: v=%v err=%v", v, err)
	}
	if !out.Cached || out.Tier != TierDisk {
		t.Errorf("warm outcome = %+v, want disk hit", out)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times across restart, want 1", calls)
	}
	if st := warm.Stats(); st.Tiers[TierDisk].Hits != 1 {
		t.Errorf("warm disk tier = %+v, want 1 hit", st.Tiers[TierDisk])
	}
}

func TestStoreCorruptDiskArtifactRebuilds(t *testing.T) {
	dir := t.TempDir()
	codec := testCodec{}
	if err := os.WriteFile(artPath(dir, testKey(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(4, dir)
	v, out, err := s.Resolve(context.Background(), "test", testKey(1), codec, func(context.Context) (any, error) {
		return "rebuilt", nil
	})
	if err != nil || v != "rebuilt" {
		t.Fatalf("resolve over corrupt artifact: v=%v err=%v", v, err)
	}
	if out.Cached || out.Tier != "" {
		t.Errorf("outcome = %+v, want fresh compute", out)
	}
	// The rebuild republished a good artifact, so a fresh store serves
	// it from the disk tier.
	v, out, err = NewStore(4, dir).Resolve(context.Background(), "test", testKey(1), codec, func(context.Context) (any, error) {
		return nil, errors.New("disk tier must serve the rebuilt artifact")
	})
	if err != nil || out.Tier != TierDisk || v != "rebuilt" {
		t.Errorf("disk after rebuild: v=%v out=%+v err=%v; want rebuilt artifact", v, out, err)
	}
}

// TestStoreFailedComputeStaysOffDisk pins the one rule that keeps an
// artifact out of reuse: a compute that returns an error is stored
// nowhere, not even on a disk-backed store, yet it still counts as a
// compute, so Misses - Computes stays the count of tier-served misses.
func TestStoreFailedComputeStaysOffDisk(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(4, dir)
	errFailed := errors.New("compute failed")
	if _, _, err := s.Resolve(context.Background(), "test", testKey(1), testCodec{}, func(context.Context) (any, error) {
		return "partial", errFailed
	}); !errors.Is(err, errFailed) {
		t.Fatalf("err = %v, want the compute's error", err)
	}
	if _, err := os.Stat(artPath(dir, testKey(1))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed compute reached disk (stat err = %v)", err)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Error("failed compute reached the value LRU")
	}
	if c := s.Stats().Stages["test"]; c.Misses != 1 || c.Computes != 1 {
		t.Errorf("counters = %+v, want 1 miss and 1 compute", c)
	}
}

// TestSaveDiskBytesIdentical pins the pooled-buffer persist path
// byte-identical to encoding straight through the codec: the on-disk
// artifact is exactly what codec.Encode produces wrapped in one
// verifiable frame, no staging residue.
func TestSaveDiskBytesIdentical(t *testing.T) {
	dir := t.TempDir()
	codec := testCodec{}
	ctx := context.Background()
	const payload = "artifact-bytes-0123456789"
	s := NewStore(4, dir)
	if _, _, err := s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		return payload, nil
	}); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(artPath(dir, testKey(1)))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := codec.Encode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unframe(onDisk)
	if err != nil {
		t.Fatalf("persisted artifact not framed: %v", err)
	}
	if !bytes.Equal(got, direct) {
		t.Errorf("framed payload %q != direct encode %q", got, direct)
	}
}

// TestPooledBuffersDoNotLeakAcrossArtifacts drives many differently
// sized artifacts through persist and disk-decode in sequence. A
// buffer reuse bug (missing Reset, or a codec retaining pool memory)
// would surface as one artifact's bytes bleeding into another's.
func TestPooledBuffersDoNotLeakAcrossArtifacts(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	payloads := []string{
		strings.Repeat("long-first-artifact|", 50),
		"tiny",
		strings.Repeat("x", 333),
		"another-small-one",
	}
	for i, payload := range payloads {
		codec := testCodec{}
		s := NewStore(4, dir)
		p := payload
		if _, _, err := s.Resolve(ctx, "test", testKey(100+i), codec, func(context.Context) (any, error) {
			return p, nil
		}); err != nil {
			t.Fatal(err)
		}
		// A fresh store must round-trip the value through the pooled
		// decode path, not memory.
		fresh := NewStore(4, dir)
		v, out, err := fresh.Resolve(ctx, "test", testKey(100+i), codec, func(context.Context) (any, error) {
			return nil, errors.New("decode path must not recompute")
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Tier != TierDisk {
			t.Fatalf("artifact %d not served from disk: %+v", i, out)
		}
		if v.(string) != payload {
			t.Errorf("artifact %d decoded to %q, want %q", i, v, payload)
		}
	}
}

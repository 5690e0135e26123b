package stage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func testRef(i int) Ref {
	return Ref{Key: testKey(i), Name: fmt.Sprintf("art-%d.txt", i)}
}

func TestMemoryBackendLRU(t *testing.T) {
	ctx := context.Background()
	m := NewMemoryBackend(2)
	put := func(i int, data string) {
		t.Helper()
		if written, err := m.Put(ctx, testRef(i), []byte(data)); !written || err != nil {
			t.Fatalf("Put(%d): written=%v err=%v", i, written, err)
		}
	}
	put(1, "one")
	put(2, "two")
	if _, err := m.Get(ctx, testRef(1)); err != nil { // touch 1 so 2 is the victim
		t.Fatal(err)
	}
	put(3, "three")
	if _, err := m.Get(ctx, testRef(2)); !errors.Is(err, ErrNotFound) {
		t.Errorf("evicted entry Get err = %v, want ErrNotFound", err)
	}
	if data, err := m.Get(ctx, testRef(1)); err != nil || string(data) != "one" {
		t.Errorf("survivor Get = %q, %v", data, err)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	// Put copies: mutating the caller's slice must not reach the tier.
	src := []byte("pristine")
	put(4, string(src))
	copy(src, "clobber!")
	if data, _ := m.Get(ctx, testRef(4)); string(data) != "pristine" {
		t.Errorf("tier shares the caller's buffer: %q", data)
	}
}

// TestTierPromotion pins the chain contract: a hit in a lower tier is
// promoted into every tier above it, and the next resolve is served
// from the fastest tier.
func TestTierPromotion(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	codec := testCodec{name: "art.txt", persist: true}
	mem := Framed(Breakered(NewMemoryBackend(8)))
	disk := Framed(Breakered(NewDiskBackend(dir)))
	s := NewTieredStore(4, []Backend{mem, disk})

	// First resolve computes and writes through both tiers.
	if _, out, err := s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		return "artifact", nil
	}); err != nil || out.Cached {
		t.Fatalf("cold resolve: out=%+v err=%v", out, err)
	}
	if mem.Len() != 1 {
		t.Fatalf("memory tier holds %d artifacts after write-through, want 1", mem.Len())
	}

	// Drop the value and the memory tier's copy: the disk tier serves
	// the miss and promotes its bytes back into the memory tier.
	s.Delete(testKey(1))
	ref := Ref{Key: testKey(1), Name: codec.Filename()}
	if err := mem.Delete(ctx, ref); err != nil {
		t.Fatal(err)
	}
	v, out, err := s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		return nil, errors.New("tiers must serve this resolve")
	})
	if err != nil || v != "artifact" || out.Tier != TierDisk {
		t.Fatalf("disk-tier resolve: v=%v out=%+v err=%v", v, out, err)
	}
	if mem.Len() != 1 {
		t.Errorf("disk hit not promoted into the memory tier (Len=%d)", mem.Len())
	}

	// Value evicted again: now the memory tier serves, disk untouched.
	s.Delete(testKey(1))
	v, out, err = s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		return nil, errors.New("tiers must serve this resolve")
	})
	if err != nil || v != "artifact" || out.Tier != TierMemory {
		t.Fatalf("memory-tier resolve: v=%v out=%+v err=%v", v, out, err)
	}
	st := s.Stats()
	if st.Tiers[TierMemory].Hits != 1 || st.Tiers[TierDisk].Hits != 1 {
		t.Errorf("tier hit rows = %+v, want one hit each", st.Tiers)
	}
	if st.Tiers[TierMemory].Writes < 2 { // write-through + promotion
		t.Errorf("memory tier writes = %d, want >= 2", st.Tiers[TierMemory].Writes)
	}
}

// TestHTTPBackendFetch pins the peer tier against a stub peer: a 200
// with framed bytes serves (verified by the Framed decorator), a 404
// falls through peers and reports a clean miss, and a second peer is
// probed when the first misses.
func TestHTTPBackendFetch(t *testing.T) {
	ctx := context.Background()
	payload := []byte("peer-artifact")
	framed := Frame(payload)
	var hits atomic.Int64
	warm := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, ArtifactPathPrefix) {
			http.NotFound(w, r)
			return
		}
		hits.Add(1)
		w.Write(framed)
	}))
	defer warm.Close()
	cold := httptest.NewServer(http.HandlerFunc(http.NotFound))
	defer cold.Close()

	tier := Framed(Breakered(NewHTTPBackend([]string{cold.URL, warm.URL}, nil)))
	ref := testRef(1)
	got, err := tier.Get(ctx, ref)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("peer Get = %q, %v; want verified payload", got, err)
	}
	if hits.Load() != 1 {
		t.Errorf("warm peer served %d times, want 1 (cold peer must 404 first)", hits.Load())
	}

	missTier := Framed(Breakered(NewHTTPBackend([]string{cold.URL}, nil)))
	if _, err := missTier.Get(ctx, ref); !errors.Is(err, ErrNotFound) {
		t.Errorf("all-miss Get err = %v, want ErrNotFound", err)
	}
	// The tier is read-only: Put reports not-written without error.
	if written, err := missTier.Put(ctx, ref, payload); written || err != nil {
		t.Errorf("Put on peer tier: written=%v err=%v, want no-op", written, err)
	}
}

// TestHTTPBackendCorruptResponseQuarantined pins the integrity
// contract on the wire: a peer serving bytes that fail frame
// verification is a quarantine (counted), never a decodable artifact.
func TestHTTPBackendCorruptResponseQuarantined(t *testing.T) {
	ctx := context.Background()
	framed := Frame([]byte("peer-artifact"))
	torn := framed[:len(framed)-3]
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(torn)
	}))
	defer peer.Close()
	tier := Framed(Breakered(NewHTTPBackend([]string{peer.URL}, nil)))
	_, err := tier.Get(ctx, testRef(1))
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Tier != TierPeer {
		t.Fatalf("torn peer response err = %v, want CorruptError from the peer tier", err)
	}
	if st := tier.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	// Corruption is a data problem, not an I/O failure: the breaker
	// must not have counted it.
	if st := tier.Stats(); st.Errors != 0 || st.State != TierOK {
		t.Errorf("breaker saw corruption as I/O failure: %+v", st)
	}
}

// TestFetchFramed pins the peer-serving read path: resolved artifacts
// are servable as verified framed bytes and unresolved keys are clean
// misses.
func TestFetchFramed(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	codec := testCodec{name: "art.txt", persist: true}
	s := NewStore(4, dir)
	if _, _, err := s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		return "served", nil
	}); err != nil {
		t.Fatal(err)
	}
	data, err := s.FetchFramed(ctx, testKey(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFrame(data); err != nil {
		t.Fatalf("fetched artifact fails verification: %v", err)
	}
	payload, _ := unframe(data)
	if v, err := codec.Decode(bytes.NewReader(payload)); err != nil || v != "served" {
		t.Errorf("fetched payload decodes to %v, %v", v, err)
	}
	if _, err := s.FetchFramed(ctx, testKey(99)); !errors.Is(err, ErrNotFound) {
		t.Errorf("unresolved key err = %v, want ErrNotFound", err)
	}
	if keys := s.Keys(); len(keys) != 1 || keys[0] != testKey(1) {
		t.Errorf("Keys() = %v, want exactly the resolved key", keys)
	}
}

// TestPeerUnframedBodyQuarantined pins that frames are mandatory on
// the wire: a peer answering 200 with a body the codec could decode but
// that carries no frame is corrupt. The tier quarantines it, compute
// runs, and FetchFramed re-serves the computed artifact, never the
// peer's bytes.
func TestPeerUnframedBodyQuarantined(t *testing.T) {
	ctx := context.Background()
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("peer-unframed"))
	}))
	defer peer.Close()
	tiers, err := NewTierChain([]string{TierMemory, TierPeer}, TierConfig{Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewTieredStore(4, tiers)
	codec := testCodec{name: "art.txt", persist: true}

	v, out, err := s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		return "computed", nil
	})
	if err != nil || out.Cached || v != "computed" {
		t.Fatalf("resolve over unframed peer body: v=%v out=%+v err=%v, want compute", v, out, err)
	}
	if q := s.Stats().Tiers[TierPeer].Quarantined; q != 1 {
		t.Errorf("peer tier quarantined = %d, want 1", q)
	}
	var ce *CorruptError
	if _, err := tiers[1].Get(ctx, Ref{Key: testKey(2), Name: "other.txt"}); !errors.As(err, &ce) || ce.Tier != TierPeer {
		t.Errorf("unframed peer body err = %v, want CorruptError from the peer tier", err)
	}
	data, err := s.FetchFramed(ctx, testKey(1))
	if err != nil {
		t.Fatal(err)
	}
	if payload, err := unframe(data); err != nil || string(payload) != "computed" {
		t.Errorf("FetchFramed payload = %q, %v; want the computed artifact", payload, err)
	}
}

// TestFetchFramedSkipsRemoteTiers pins the no-loop rule: a store whose
// only tier is a peer cannot serve FetchFramed, so two daemons pointed
// at each other never bounce a fetch back and forth.
func TestFetchFramedSkipsRemoteTiers(t *testing.T) {
	ctx := context.Background()
	served := atomic.Int64{}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write(Frame([]byte("remote")))
	}))
	defer peer.Close()
	tiers, err := NewTierChain([]string{TierPeer}, TierConfig{Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewTieredStore(4, tiers)
	codec := testCodec{name: "art.txt", persist: true}
	if _, _, err := s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		t.Error("peer tier should have served the resolve")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchFramed(ctx, testKey(1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("FetchFramed through a remote-only chain err = %v, want ErrNotFound", err)
	}
	if served.Load() != 1 {
		t.Errorf("peer served %d requests, want 1 (resolve only, no fetch bounce)", served.Load())
	}
}

func TestNewTierChain(t *testing.T) {
	dir := t.TempDir()
	tiers, err := NewTierChain([]string{TierMemory, TierDisk, TierPeer}, TierConfig{
		Dir:   dir,
		Peers: []string{"http://127.0.0.1:1/"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 3 {
		t.Fatalf("chain length = %d, want 3", len(tiers))
	}
	for i, want := range []string{TierMemory, TierDisk, TierPeer} {
		if tiers[i].Name() != want {
			t.Errorf("tier %d = %q, want %q", i, tiers[i].Name(), want)
		}
	}
	if !isRemote(tiers[2]) || isRemote(tiers[0]) {
		t.Error("remote marker not forwarded through the decorators")
	}

	for name, names := range map[string][]string{
		"unknown tier":      {"tape"},
		"duplicate tier":    {TierMemory, TierMemory},
		"disk without dir":  {TierDisk},
		"peer without urls": {TierPeer},
	} {
		if _, err := NewTierChain(names, TierConfig{}); err == nil {
			t.Errorf("%s: NewTierChain accepted %v", name, names)
		}
	}

	if got := DefaultTierNames("", nil); got != nil {
		t.Errorf("DefaultTierNames with nothing = %v, want nil", got)
	}
	if got := DefaultTierNames(dir, []string{"http://p"}); len(got) != 2 || got[0] != TierDisk || got[1] != TierPeer {
		t.Errorf("DefaultTierNames = %v, want [disk peer]", got)
	}
}

package stage

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// artifactPeer is a stub peer daemon: it serves the framed bytes of
// the artifacts it holds at /v1/artifacts/{key}, 404s everything else,
// and counts every request it receives.
func artifactPeer(t *testing.T, held map[Key]string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var requests atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		for key, payload := range held {
			if r.URL.Path == ArtifactPathPrefix+key.String() {
				w.Write(Frame([]byte(payload)))
				return
			}
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(peer.Close)
	return peer, &requests
}

// TestNewStoreChain pins the tier chain NewStore derives from its
// directory and peers: disk when a directory is set, then peer when
// peers are set, each reported as one Stats().Tiers row. A disk hit
// never sends a request to the peer.
func TestNewStoreChain(t *testing.T) {
	ctx := context.Background()
	codec := testCodec{}
	for _, c := range []struct {
		name      string
		dir, peer bool
		tiers     []string
		// warmTier serves the resolve after the value is evicted.
		warmTier string
	}{
		{name: "memory only", tiers: []string{}},
		{name: "dir", dir: true, tiers: []string{TierDisk}, warmTier: TierDisk},
		{name: "peers", peer: true, tiers: []string{TierPeer}},
		{name: "dir and peers", dir: true, peer: true, tiers: []string{TierDisk, TierPeer}, warmTier: TierDisk},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer, requests := artifactPeer(t, nil)
			var dir string
			var peers []string
			if c.dir {
				dir = t.TempDir()
			}
			if c.peer {
				peers = []string{peer.URL}
			}
			s := NewStore(4, dir, peers...)
			names := []string{}
			for _, tr := range s.tiers {
				names = append(names, tr.name)
			}
			if !reflect.DeepEqual(names, c.tiers) {
				t.Fatalf("chain = %v, want %v", names, c.tiers)
			}
			rows := []string{}
			for name, row := range s.Stats().Tiers {
				if row.State != TierOK {
					t.Errorf("tier %s state = %q, want %q", name, row.State, TierOK)
				}
				rows = append(rows, name)
			}
			sort.Strings(rows)
			want := append([]string{}, c.tiers...)
			sort.Strings(want)
			if !reflect.DeepEqual(rows, want) {
				t.Errorf("Stats().Tiers rows = %v, want %v", rows, want)
			}

			compute := func(context.Context) (any, error) { return "artifact", nil }
			if _, _, err := s.Resolve(ctx, "test", testKey(1), codec, compute); err != nil {
				t.Fatal(err)
			}
			wantCold := int64(0)
			if c.peer {
				wantCold = 1 // the peer probe before compute
			}
			coldRequests := requests.Load()
			if coldRequests != wantCold {
				t.Errorf("cold resolve sent %d peer requests, want %d", coldRequests, wantCold)
			}
			s.Delete(testKey(1))
			v, out, err := s.Resolve(ctx, "test", testKey(1), codec, compute)
			if err != nil || v != "artifact" || out.Tier != c.warmTier {
				t.Errorf("warm resolve: v=%v out=%+v err=%v, want tier %q", v, out, err, c.warmTier)
			}
			if c.warmTier == TierDisk && requests.Load() != coldRequests {
				t.Errorf("disk hit sent %d requests to the peer", requests.Load()-coldRequests)
			}
		})
	}
}

// TestTierPromotion pins the chain contract: a hit in a lower tier is
// promoted into every tier above it, and the next resolve is served
// from the fastest tier. A peer hit lands on disk as a framed file.
func TestTierPromotion(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	codec := testCodec{}
	peer, requests := artifactPeer(t, map[Key]string{testKey(1): "peer-artifact"})
	s := NewStore(4, dir, peer.URL)
	noCompute := func(context.Context) (any, error) {
		return nil, errors.New("tiers must serve this resolve")
	}

	v, out, err := s.Resolve(ctx, "test", testKey(1), codec, noCompute)
	if err != nil || v != "peer-artifact" || out.Tier != TierPeer {
		t.Fatalf("cold resolve: v=%v out=%+v err=%v, want the peer tier", v, out, err)
	}
	data, err := os.ReadFile(artPath(dir, testKey(1)))
	if err != nil {
		t.Fatalf("peer hit not promoted to disk: %v", err)
	}
	if _, err := Unframe(data); err != nil {
		t.Errorf("promoted file fails verification: %v", err)
	}

	// Value evicted: now the disk tier serves, the peer untouched.
	s.Delete(testKey(1))
	v, out, err = s.Resolve(ctx, "test", testKey(1), codec, noCompute)
	if err != nil || v != "peer-artifact" || out.Tier != TierDisk {
		t.Fatalf("warm resolve: v=%v out=%+v err=%v, want the disk tier", v, out, err)
	}
	if requests.Load() != 1 {
		t.Errorf("peer saw %d requests, want only the cold fetch", requests.Load())
	}
	st := s.Stats()
	if st.Tiers[TierPeer].Hits != 1 || st.Tiers[TierDisk].Hits != 1 {
		t.Errorf("tier hit rows = %+v, want one hit each", st.Tiers)
	}
	if st.Tiers[TierDisk].Writes != 1 {
		t.Errorf("disk tier writes = %d, want the one promotion", st.Tiers[TierDisk].Writes)
	}
}

// TestHTTPBackendFetch pins the peer tier against a stub peer: a 200
// with framed bytes serves (verified by the tier), a 404
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

	peerTier := &tier{name: TierPeer, dev: &HTTPBackend{peers: []string{cold.URL, warm.URL}}}
	key := testKey(1)
	gotFramed, got, err := peerTier.get(ctx, key)
	if err != nil || !bytes.Equal(got, payload) || !bytes.Equal(gotFramed, framed) {
		t.Fatalf("peer get = %q, %q, %v; want the verified frame and payload", gotFramed, got, err)
	}
	if hits.Load() != 1 {
		t.Errorf("warm peer served %d times, want 1 (cold peer must 404 first)", hits.Load())
	}

	missTier := &tier{name: TierPeer, dev: &HTTPBackend{peers: []string{cold.URL}}}
	if _, _, err := missTier.get(ctx, key); !errors.Is(err, ErrNotFound) {
		t.Errorf("all-miss get err = %v, want ErrNotFound", err)
	}
	// The tier is read-only: put writes nothing and is no error.
	missTier.put(ctx, key, payload)
	if st := missTier.stats(); st.Writes != 0 || st.Errors != 0 {
		t.Errorf("no-op put moved the row: %+v", st)
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
	peerTier := &tier{name: TierPeer, dev: &HTTPBackend{peers: []string{peer.URL}}}
	if _, _, err := peerTier.get(ctx, testKey(1)); err == nil {
		t.Fatal("torn peer response verified, want a corrupt-artifact error")
	}
	if st := peerTier.stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	// Corruption is a data problem, not an I/O failure: the breaker
	// must not have counted it.
	if st := peerTier.stats(); st.Errors != 0 || st.State != TierOK {
		t.Errorf("breaker saw corruption as I/O failure: %+v", st)
	}
}

// TestFetchFramed pins the peer-serving read path: resolved artifacts
// are servable as verified framed bytes and unresolved keys are clean
// misses.
func TestFetchFramed(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	codec := testCodec{}
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
	payload, err := Unframe(data)
	if err != nil {
		t.Fatalf("fetched artifact fails verification: %v", err)
	}
	if v, err := codec.Decode(payload); err != nil || v != "served" {
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
// runs, and FetchFramed re-serves the computed artifact from disk,
// never the peer's bytes.
func TestPeerUnframedBodyQuarantined(t *testing.T) {
	ctx := context.Background()
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("peer-unframed"))
	}))
	defer peer.Close()
	s := NewStore(4, t.TempDir(), peer.URL)
	codec := testCodec{}

	v, out, err := s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		return "computed", nil
	})
	if err != nil || out.Cached || v != "computed" {
		t.Fatalf("resolve over unframed peer body: v=%v out=%+v err=%v, want compute", v, out, err)
	}
	if q := s.Stats().Tiers[TierPeer].Quarantined; q != 1 {
		t.Errorf("peer tier quarantined = %d, want 1", q)
	}
	if _, _, err := s.tiers[1].get(ctx, testKey(2)); err == nil {
		t.Error("unframed peer body verified, want a corrupt-artifact error")
	}
	if st := s.Stats().Tiers[TierPeer]; st.Quarantined != 2 || st.Errors != 0 {
		t.Errorf("peer tier row = %+v, want quarantined 2 and no errors", st)
	}
	data, err := s.FetchFramed(ctx, testKey(1))
	if err != nil {
		t.Fatal(err)
	}
	if payload, err := Unframe(data); err != nil || string(payload) != "computed" {
		t.Errorf("FetchFramed payload = %q, %v; want the computed artifact", payload, err)
	}
}

// TestFetchFramedSkipsRemoteTiers pins the no-loop rule: FetchFramed
// serves from the local disk tier only and never asks the peer tier,
// so two daemons pointed at each other never bounce a fetch back and
// forth.
func TestFetchFramedSkipsRemoteTiers(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	peer, requests := artifactPeer(t, map[Key]string{testKey(1): "remote"})
	s := NewStore(4, dir, peer.URL)
	codec := testCodec{}
	if _, _, err := s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		t.Error("peer tier should have served the resolve")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	data, err := s.FetchFramed(ctx, testKey(1))
	if err == nil {
		_, err = Unframe(data)
	}
	if err != nil {
		t.Fatalf("FetchFramed of the promoted artifact = %v, want verified disk bytes", err)
	}
	// With the disk copy gone, only the peer holds the artifact — and
	// FetchFramed must not ask it.
	if err := os.Remove(artPath(dir, testKey(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchFramed(ctx, testKey(1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("FetchFramed without a local copy err = %v, want ErrNotFound", err)
	}
	if requests.Load() != 1 {
		t.Errorf("peer served %d requests, want 1 (resolve only, no fetch bounce)", requests.Load())
	}
}

// TestRestartedStoreServesDirectory pins the artifact index on the
// directory itself: a fresh store over a directory another store
// filled — a daemon restart — serves and lists the artifacts there
// without resolving any key first. Files that are not <key>.art
// artifacts (a writer's tmp file, a quarantined copy, a file of the
// old <suite>-<key prefix>.prof layout, a non-canonical key, the jobs
// directory) are neither listed, nor counted, nor served.
func TestRestartedStoreServesDirectory(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	if _, _, err := NewStore(4, dir).Resolve(ctx, "test", testKey(1), testCodec{}, func(context.Context) (any, error) {
		return "persisted", nil
	}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(artPath(dir, testKey(1)))
	if err != nil {
		t.Fatal(err)
	}
	upper := Key(strings.ToUpper(testKey(4).String()))
	for _, name := range []string{
		testKey(2).String() + artExt + ".tmp123",
		testKey(3).String() + artExt + ".corrupt",
		"nr-" + testKey(5).String()[:12] + ".prof",
		upper.String() + artExt,
		"notes.txt",
		filepath.Join("jobs", testKey(6).String()+artExt),
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, Frame([]byte("planted")), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	b := NewStore(4, dir)
	framed, err := b.FetchFramed(ctx, testKey(1))
	if err != nil || !bytes.Equal(framed, want) {
		t.Errorf("restarted FetchFramed = %q, %v; want the framed file", framed, err)
	}
	if keys := b.Keys(); !reflect.DeepEqual(keys, []Key{testKey(1)}) {
		t.Errorf("restarted Keys() = %v, want exactly %v", keys, testKey(1))
	}
	if n := b.Stats().Tiers[TierDisk].Entries; n != 1 {
		t.Errorf("restarted disk tier entries = %d, want 1", n)
	}
	for _, k := range []Key{testKey(2), testKey(3), upper, "../" + testKey(1)} {
		if _, err := b.FetchFramed(ctx, k); !errors.Is(err, ErrNotFound) {
			t.Errorf("FetchFramed(%q) err = %v, want ErrNotFound", k, err)
		}
	}
	if m := b.Stats().Total.Misses; m != 0 {
		t.Errorf("restarted store resolved %d keys, want none", m)
	}
}

// TestKeysListsOnlyServable pins the artifact index against its read
// path: Keys lists a key only once a local tier holds its bytes, so
// every listed key is one FetchFramed can serve. A failed compute and
// a key only a peer holds are both unlisted.
func TestKeysListsOnlyServable(t *testing.T) {
	ctx := context.Background()
	fail := func(context.Context) (any, error) { return nil, errors.New("compute failed") }
	ok := func(context.Context) (any, error) { return "computed", nil }
	peer, _ := artifactPeer(t, map[Key]string{testKey(1): "peer-artifact"})
	for _, c := range []struct {
		name    string
		dir     bool
		peers   []string
		compute func(context.Context) (any, error)
		listed  bool
	}{
		{name: "failed compute", dir: true, compute: fail},
		{name: "peer only", peers: []string{peer.URL}, compute: fail},
		{name: "written through", dir: true, compute: ok, listed: true},
		{name: "promoted from peer", dir: true, peers: []string{peer.URL}, compute: fail, listed: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var dir string
			if c.dir {
				dir = t.TempDir()
			}
			s := NewStore(4, dir, c.peers...)
			s.Resolve(ctx, "test", testKey(1), testCodec{}, c.compute)
			_, fetchErr := s.FetchFramed(ctx, testKey(1))
			if keys := s.Keys(); c.listed != (len(keys) == 1) || len(keys) > 1 {
				t.Errorf("Keys() = %v, want listed=%v (FetchFramed err = %v)", keys, c.listed, fetchErr)
			}
			if c.listed != (fetchErr == nil) {
				t.Errorf("FetchFramed err = %v, want servable=%v", fetchErr, c.listed)
			}
		})
	}
}

// TestParsePeers pins the -peers flag grammar both binaries share.
func TestParsePeers(t *testing.T) {
	for _, c := range []struct {
		name, list string
		want       []string
		bad        bool
	}{
		{name: "empty list", list: ""},
		{name: "surrounding whitespace", list: " http://a:8093 ,\thttps://b.example ", want: []string{"http://a:8093", "https://b.example"}},
		{name: "relative URL", list: "/v1/artifacts", bad: true},
		{name: "bare host", list: "example.com:8093", bad: true},
		{name: "non-http scheme", list: "ftp://example.com", bad: true},
		{name: "missing host", list: "http://", bad: true},
		{name: "empty element", list: "http://a:8093,,http://b:8093", bad: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParsePeers(c.list)
			if c.bad {
				if err == nil || !strings.Contains(err.Error(), "absolute http(s) base URL") {
					t.Errorf("ParsePeers(%q) = %v, %v; want a base-URL error", c.list, got, err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, c.want) {
				t.Errorf("ParsePeers(%q) = %v, %v; want %v", c.list, got, err, c.want)
			}
		})
	}
}

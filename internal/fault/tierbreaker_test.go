package fault_test

// The breaker decorator on the HTTP peer tier, exercised through a
// real (httptest) peer from outside the stage package: transient 5xx
// responses trip the peer tier into degraded, the local disk tier
// keeps serving throughout, and once the peer heals a half-open probe
// closes the breaker again. Lives in the fault package
// because it is resilience behavior; package fault_test because stage
// imports fault and the test drives stage's public API.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"fgbs/internal/stage"
)

// tierCodec is a minimal string codec so resolves flow through the
// byte tiers.
type tierCodec struct{ name string }

func (c tierCodec) Filename() string { return c.name }
func (c tierCodec) Encode(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}
func (c tierCodec) Decode(data []byte) (any, error) {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return s, nil
}
func (c tierCodec) Persist(any) bool { return true }

func TestPeerTierBreaker(t *testing.T) {
	ctx := context.Background()
	codec := tierCodec{name: "tierbreaker.json"}
	key := stage.NewKey("tierbreaker", 1).Str("shared").Key()
	payload, err := codec.Encode(nil, "peer-artifact")
	if err != nil {
		t.Fatal(err)
	}
	framed := stage.Frame(payload)

	// The peer: serves the shared key framed while healthy, returns
	// 503 for everything while failing.
	var failing atomic.Bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "peer melting", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == stage.ArtifactPathPrefix+key.String() {
			w.Write(framed)
			return
		}
		http.NotFound(w, r)
	}))
	defer peer.Close()

	dir := t.TempDir()
	s := stage.NewStore(8, dir, peer.URL)
	noCompute := func(context.Context) (any, error) {
		return nil, errors.New("compute must not run")
	}

	// Healthy peer serves the cold chain; the artifact is promoted
	// onto disk on the way.
	v, out, err := s.Resolve(ctx, "tierbreaker", key, codec, noCompute)
	if err != nil || v != "peer-artifact" || out.Tier != stage.TierPeer {
		t.Fatalf("cold resolve = %v, %+v, %v; want peer-artifact via peer tier", v, out, err)
	}

	// Three transient 5xx failures in a row trip the peer breaker.
	// The resolves themselves still succeed — compute covers the miss
	// — and the read-only peer tier's no-op Puts must not reset the
	// failure count on the way.
	failing.Store(true)
	for i := 0; i < 3; i++ {
		missKey := stage.NewKey("tierbreaker", 1).Str("miss").Int(i).Key()
		missCodec := tierCodec{name: fmt.Sprintf("tierbreaker-miss-%d.json", i)}
		want := fmt.Sprintf("computed-%d", i)
		v, _, err := s.Resolve(ctx, "tierbreaker", missKey, missCodec, func(context.Context) (any, error) {
			return want, nil
		})
		if err != nil || v != want {
			t.Fatalf("resolve %d under failing peer = %v, %v; want computed fallback", i, v, err)
		}
	}
	st := s.Stats().Tiers[stage.TierPeer]
	if st.State != stage.TierDegraded {
		t.Fatalf("peer tier state = %q after 3 transient 5xx, want %q", st.State, stage.TierDegraded)
	}
	if st.Errors < 3 {
		t.Errorf("peer tier errors = %d, want >= 3", st.Errors)
	}
	errsAfterTrip := st.Errors

	// Disk keeps serving while the peer is degraded: evict the value,
	// resolve from disk without touching the peer.
	s.Delete(key)
	if v, out, err := s.Resolve(ctx, "tierbreaker", key, codec, noCompute); err != nil || v != "peer-artifact" || out.Tier != stage.TierDisk {
		t.Fatalf("degraded-peer resolve = %v, %+v, %v; want disk tier hit", v, out, err)
	}
	if got := s.Stats().Tiers[stage.TierPeer].Errors; got != errsAfterTrip {
		t.Errorf("peer tier errors moved %d -> %d during a disk serve; degraded tier must be skipped", errsAfterTrip, got)
	}

	// Heal the peer and strip the disk copy so resolves must reach it.
	// The open breaker skips most attempts (compute fails here, so
	// those resolves error), until the paced half-open probe runs for
	// real, succeeds, and closes the breaker.
	failing.Store(false)
	if err := os.Remove(filepath.Join(dir, codec.Filename())); err != nil {
		t.Fatal(err)
	}
	recovered := false
	for i := 0; i < 64 && !recovered; i++ {
		s.Delete(key)
		v, out, err := s.Resolve(ctx, "tierbreaker", key, codec, noCompute)
		if err != nil {
			continue // probe not admitted yet: peer skipped, compute refused
		}
		if v != "peer-artifact" || out.Tier != stage.TierPeer {
			t.Fatalf("recovery resolve = %v, %+v; want peer-artifact via peer tier", v, out)
		}
		recovered = true
	}
	if !recovered {
		t.Fatal("half-open probe never recovered the healed peer")
	}
	if st := s.Stats().Tiers[stage.TierPeer]; st.State != stage.TierOK {
		t.Errorf("peer tier state = %q after successful probe, want %q", st.State, stage.TierOK)
	}
}

package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fgbs/internal/stage"
)

// TestArtifactEndpoint pins the peer-fetch read path over HTTP: the
// index lists what the node resolved, every served artifact
// frame-verifies, unknown keys are 404s, and malformed keys are 400s.
func TestArtifactEndpoint(t *testing.T) {
	s := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny"},
		Programs:   testPrograms,
		ProfileDir: t.TempDir(),
	})
	t.Cleanup(s.Close)
	if err := s.Warm([]string{"tiny"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var index struct {
		Count int      `json:"count"`
		Keys  []string `json:"keys"`
	}
	if resp := get(t, ts, "/v1/artifacts", &index); resp.StatusCode != http.StatusOK {
		t.Fatalf("index status = %d", resp.StatusCode)
	}
	if index.Count == 0 || len(index.Keys) != index.Count {
		t.Fatalf("artifact index = %+v, want the resolved profile's key", index)
	}

	for _, key := range index.Keys {
		resp, err := http.Get(ts.URL + "/v1/artifacts/" + key)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s: status=%d err=%v", key, resp.StatusCode, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Errorf("artifact %s content type = %q", key, ct)
		}
		if err := stage.VerifyFrame(data); err != nil {
			t.Errorf("artifact %s fails verification: %v", key, err)
		}
	}

	// A well-formed key this node never resolved: 404, so the fetching
	// peer falls through to compute.
	miss := strings.Repeat("ab", 32)
	if resp, err := http.Get(ts.URL + "/v1/artifacts/" + miss); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown key status = %d, want 404", resp.StatusCode)
		}
	}
	// A malformed key never reaches the store.
	if resp, err := http.Get(ts.URL + "/v1/artifacts/not-a-key"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed key status = %d, want 400", resp.StatusCode)
		}
	}
}

// TestServerPeerFetchServesColdNode pins the two-node contract at the
// package level (the cmd/fgbsd e2e does it with real binaries): a cold
// server with a warm peer builds its profile from the peer's artifact
// — zero local profile computes — and counts the fetch.
func TestServerPeerFetchServesColdNode(t *testing.T) {
	warm := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny"},
		Programs:   testPrograms,
		ProfileDir: t.TempDir(),
	})
	t.Cleanup(warm.Close)
	if err := warm.Warm([]string{"tiny"}); err != nil {
		t.Fatal(err)
	}
	warmTS := httptest.NewServer(warm.Handler())
	defer warmTS.Close()

	cold := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny"},
		Programs:   testPrograms,
		ProfileDir: t.TempDir(),
		Peers:      []string{warmTS.URL},
	})
	t.Cleanup(cold.Close)
	if err := cold.Warm([]string{"tiny"}); err != nil {
		t.Fatal(err)
	}

	st := cold.registry.store.Stats()
	if c := st.Stages["profile"].Computes; c != 0 {
		t.Errorf("cold node ran %d profile computes, want 0 (peer must serve)", c)
	}
	peer := st.Tiers[stage.TierPeer]
	if peer.Hits < 1 {
		t.Errorf("peer tier hits = %d, want >= 1", peer.Hits)
	}
	if peer.Quarantined != 0 || peer.Errors != 0 {
		t.Errorf("peer tier row = %+v, want clean fetches", peer)
	}
	if got := cold.registry.peerLoads.Load(); got != 1 {
		t.Errorf("registry peerLoads = %d, want 1", got)
	}
	// The fetched artifact was promoted into the cold node's disk tier.
	if disk := st.Tiers[stage.TierDisk]; disk.Writes < 1 {
		t.Errorf("disk tier writes = %d, want the promoted artifact", disk.Writes)
	}
}

// TestHealthzTiers pins the per-tier states under "tiers".
func TestHealthzTiers(t *testing.T) {
	s := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny"},
		Programs:   testPrograms,
		ProfileDir: t.TempDir(),
		Peers:      []string{"http://127.0.0.1:1"},
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body struct {
		Tiers map[string]string `json:"tiers"`
	}
	get(t, ts, "/healthz", &body)
	if body.Tiers[stage.TierDisk] != stage.TierOK || body.Tiers[stage.TierPeer] != stage.TierOK {
		t.Errorf("healthz tiers = %v, want disk and peer ok", body.Tiers)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"fgbs/internal/stage"
)

// TestPeerArtifactPlane is the two-daemon e2e behind ci.sh's artifact
// plane gate: daemon A profiles syn-smoke and completes the canonical
// sweep job; daemon B starts over an empty directory with -peers
// pointing at A and runs the same sweep. The multi-node contract under
// test — B's result is byte-identical to A's, B never invokes the
// simulator (its profile arrives through the peer tier: zero computes,
// at least one peer hit, nothing quarantined), the fetched artifact is
// promoted onto B's own disk with its integrity frame intact, and A's
// /v1/artifacts endpoints serve frame-verified bytes with a 404 for
// keys A never resolved.
func TestPeerArtifactPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs two daemons")
	}
	bin := buildDaemon(t)

	dirA := t.TempDir()
	a := startDaemon(t, bin, dirA, "")
	defer a.stop(t)
	idA := a.submitSweep(t)
	a.pollDone(t, idA)
	ref := a.result(t, idA)
	if len(ref) == 0 {
		t.Fatal("warm daemon produced an empty sweep result")
	}

	// A's artifact plane: the index lists the resolved profile, each
	// entry frame-verifies on the wire, unknown keys miss with 404.
	keys := artifactIndex(t, a)
	if len(keys) == 0 {
		t.Fatal("warm daemon serves no artifacts")
	}
	for _, key := range keys {
		data := fetchArtifact(t, a, key)
		if err := stage.VerifyFrame(data); err != nil {
			t.Errorf("artifact %s from warm daemon fails verification: %v", key, err)
		}
	}
	if resp, err := http.Get(a.base + "/v1/artifacts/" + strings.Repeat("ab", 32)); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown key status = %d, want 404", resp.StatusCode)
		}
	}

	// Cold daemon B: empty directory, A as its peer.
	dirB := t.TempDir()
	b := startDaemon(t, bin, dirB, "", "-peers", a.base)
	defer b.stop(t)
	idB := b.submitSweep(t)
	b.pollDone(t, idB)
	if got := b.result(t, idB); !bytes.Equal(got, ref) {
		t.Errorf("peer-served sweep differs from warm run:\n got %d bytes: %.120s\nwant %d bytes: %.120s", len(got), got, len(ref), ref)
	}

	// Zero simulator invocations on B: the profile stage never computed.
	if n := b.metricInt(t, "stages", "stages", "profile", "computes"); n != 0 {
		t.Errorf("cold daemon ran %d profile computes, want 0 (peer must serve)", n)
	}
	if n := b.metricInt(t, "stages", "tiers", stage.TierPeer, "hits"); n < 1 {
		t.Errorf("peer tier hits = %d, want >= 1", n)
	}
	if n := b.metricInt(t, "stages", "tiers", stage.TierPeer, "quarantined"); n != 0 {
		t.Errorf("peer tier quarantined = %d, want 0", n)
	}
	if n := b.metricInt(t, "registry", "peerLoads"); n != 1 {
		t.Errorf("registry peerLoads = %d, want 1", n)
	}
	// The fetch was promoted onto B's disk tier, frame intact.
	verifyArtifacts(t, dirB)
}

// artifactIndex fetches a daemon's /v1/artifacts key list.
func artifactIndex(t *testing.T, d *daemon) []string {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var index struct {
		Count int      `json:"count"`
		Keys  []string `json:"keys"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact index: status=%d err=%v", resp.StatusCode, err)
	}
	if index.Count != len(index.Keys) {
		t.Fatalf("artifact index count=%d but %d keys", index.Count, len(index.Keys))
	}
	return index.Keys
}

// fetchArtifact fetches one framed artifact, asserting a 200.
func fetchArtifact(t *testing.T, d *daemon, key string) []byte {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/artifacts/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s: status=%d err=%v", key, resp.StatusCode, err)
	}
	return data
}

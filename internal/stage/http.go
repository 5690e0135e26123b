package stage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// ArtifactPathPrefix is the peer-fetch endpoint's URL prefix: a peer
// fgbsd serves GET <prefix><key> with the artifact's framed bytes (404
// on miss). The server layer routes it; HTTPBackend fetches from it.
const ArtifactPathPrefix = "/v1/artifacts/"

// maxArtifactBytes bounds one fetched artifact. Profile artifacts run
// to megabytes; a peer handing back gigabytes is a malfunction, not a
// bigger artifact.
const maxArtifactBytes = 1 << 30

// HTTPBackend is the remote byte tier: it fetches artifacts from peer
// fgbsd daemons' /v1/artifacts/{key} endpoints before the chain falls
// through to recomputing. The tier is read-only (Put and Delete are
// no-ops) and carries no state of its own; in a standard chain the
// Framed decorator verifies every response's integrity frame at this
// node and the Breakered decorator degrades the tier when peers
// misbehave, so a flapping peer costs probes, not correctness.
type HTTPBackend struct {
	peers  []string
	client *http.Client
}

// NewHTTPBackend builds a peer tier fetching from peers (base URLs,
// probed in order). client nil means http.DefaultClient; callers
// cancel or bound fetches through the Get context.
func NewHTTPBackend(peers []string, client *http.Client) *HTTPBackend {
	if client == nil {
		client = http.DefaultClient
	}
	trimmed := make([]string, 0, len(peers))
	for _, p := range peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			trimmed = append(trimmed, p)
		}
	}
	return &HTTPBackend{peers: trimmed, client: client}
}

// Name identifies the tier.
func (b *HTTPBackend) Name() string { return TierPeer }

// Remote marks the tier as peer-served so FetchFramed never answers a
// peer's fetch from another peer (no fetch loops between daemons).
func (b *HTTPBackend) Remote() bool { return true }

// artifactURL builds the peer-fetch URL for key on peer. The request
// path embeds the key's canonical hex form verbatim — a pure function
// of the content address, which is what keeps peer fetches
// deterministic (fgbsvet's keypurity check treats Key.String-derived
// paths as clean and flags anything else).
func (b *HTTPBackend) artifactURL(peer string, key Key) string {
	return peer + ArtifactPathPrefix + key.String()
}

// Get fetches ref's framed bytes from the first peer that has them. A
// 404 means that peer does not hold the artifact and the next one is
// probed; transport failures and non-200 statuses are I/O errors for
// the breaker (the first such error is returned so the breaker sees
// the root cause, but later peers are still tried first).
func (b *HTTPBackend) Get(ctx context.Context, ref Ref) ([]byte, error) {
	var firstErr error
	for _, peer := range b.peers {
		data, err := b.fetch(ctx, peer, ref.Key)
		if err == nil {
			return data, nil
		}
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, ErrNotFound
}

// fetch performs one peer request.
func (b *HTTPBackend) fetch(ctx context.Context, peer string, key Key) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.artifactURL(peer, key), nil)
	if err != nil {
		return nil, fmt.Errorf("stage: peer %s: %w", peer, err)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("stage: peer %s: %w", peer, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes+1))
		if err != nil {
			return nil, fmt.Errorf("stage: peer %s: reading artifact: %w", peer, err)
		}
		if len(data) > maxArtifactBytes {
			return nil, fmt.Errorf("stage: peer %s: artifact exceeds %d bytes", peer, maxArtifactBytes)
		}
		return data, nil
	case http.StatusNotFound:
		// Drain so the connection can be reused for the next key.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, ErrNotFound
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("stage: peer %s: status %d fetching artifact", peer, resp.StatusCode)
	}
}

// Put is a no-op: the tier is read-only (peers pull, nobody pushes).
func (b *HTTPBackend) Put(ctx context.Context, ref Ref, data []byte) (bool, error) {
	return false, nil
}

// Delete is a no-op for the same reason.
func (b *HTTPBackend) Delete(ctx context.Context, ref Ref) error { return nil }

// Len is unknowable for a remote tier.
func (b *HTTPBackend) Len() int { return 0 }

// Stats reports the tier's base row; traffic counters come from the
// decorators.
func (b *HTTPBackend) Stats() TierStats {
	return TierStats{State: TierOK}
}

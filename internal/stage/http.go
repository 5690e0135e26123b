package stage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
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

// HTTPBackend is the peer device: it fetches artifacts from peer
// fgbsd daemons' /v1/artifacts/{key} endpoints before the chain falls
// through to recomputing. The device is read-only (put is a no-op) and
// carries no state of its own; its tier verifies every response's
// integrity frame at this node and degrades when peers misbehave, so a
// flapping peer costs probes, not correctness. (fgbsvet's keypurity
// check finds artifactURL by this type's name.)
type HTTPBackend struct {
	peers []string
}

// newHTTPBackend builds a peer device fetching from peers (base URLs,
// probed in order) through http.DefaultClient; callers cancel or bound
// fetches through the get context.
func newHTTPBackend(peers []string) *HTTPBackend {
	trimmed := make([]string, 0, len(peers))
	for _, p := range peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			trimmed = append(trimmed, p)
		}
	}
	return &HTTPBackend{peers: trimmed}
}

// ParsePeers parses a comma-separated -peers list (both binaries' flag)
// into base URLs, trimming the whitespace around each. Every element
// must be an absolute http(s) URL with a host — a bare host or an
// empty element would silently never match anything. An empty list
// means no peers.
func ParsePeers(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	var out []string
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		u, err := url.Parse(p)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("peer %q: want an absolute http(s) base URL", p)
		}
		out = append(out, p)
	}
	return out, nil
}

// artifactURL builds the peer-fetch URL for key on peer. The request
// path embeds the key's canonical hex form verbatim — a pure function
// of the content address, which is what keeps peer fetches
// deterministic (fgbsvet's keypurity check treats Key.String-derived
// paths as clean and flags anything else).
func (b *HTTPBackend) artifactURL(peer string, key Key) string {
	return peer + ArtifactPathPrefix + key.String()
}

// get fetches key's framed bytes from the first peer that has them. A
// 404 means that peer does not hold the artifact and the next one is
// probed; transport failures and non-200 statuses are I/O errors for
// the breaker (the first such error is returned so the breaker sees
// the root cause, but later peers are still tried first).
func (b *HTTPBackend) get(ctx context.Context, key Key) ([]byte, error) {
	var firstErr error
	for _, peer := range b.peers {
		data, err := b.fetch(ctx, peer, key)
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
	resp, err := http.DefaultClient.Do(req)
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

// put is a no-op: the device is read-only (peers pull, nobody pushes).
func (b *HTTPBackend) put(ctx context.Context, key Key, data []byte) (bool, error) {
	return false, nil
}

// quarantine is a no-op: a peer's bytes are not this node's to move.
func (b *HTTPBackend) quarantine(key Key) {}

// keys is nil: a peer's holdings are not listed here.
func (b *HTTPBackend) keys() []Key { return nil }

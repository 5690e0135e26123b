package stage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	for _, payload := range []string{"", "x", strings.Repeat("artifact|", 1000)} {
		data := []byte(frameHeader([]byte(payload)) + payload)
		got, err := unframe(data)
		if err != nil {
			t.Fatalf("unframe(%d bytes): %v", len(payload), err)
		}
		if string(got) != payload {
			t.Errorf("payload of %d bytes did not round-trip", len(payload))
		}
	}
}

func TestUnframeRejectsCorruption(t *testing.T) {
	payload := []byte("the artifact payload")
	good := frameHeader(payload) + string(payload)
	cases := map[string]string{
		"truncated payload": good[:len(good)-3],
		"flipped bit":       strings.Replace(good, "payload", "paYload", 1),
		"truncated header":  good[:20],
		"future version":    strings.Replace(good, " v1 ", " v2 ", 1),
		"malformed header":  frameMagic + " v1 bogus\n" + string(payload),
		"malformed length":  strings.Replace(good, "len:", "len:x", 1),
		"garbage after sum": good + "trailing",
		"unframed":          string(payload),
	}
	for name, data := range cases {
		if _, err := unframe([]byte(data)); err == nil {
			t.Errorf("%s: unframe accepted corrupt data", name)
		}
	}
}

// TestQuarantine pins the corruption path end to end: a torn or
// bit-flipped artifact is renamed to *.corrupt (kept, counted, never
// silently deleted), the resolve falls through to recompute, and the
// fresh artifact replaces the corrupt one on disk.
func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	codec := testCodec{name: "art.txt", persist: true}
	ctx := context.Background()
	s := NewStore(4, dir)
	if _, _, err := s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		return "original", nil
	}); err != nil {
		t.Fatal(err)
	}

	// Corrupt the published artifact the way a torn write would.
	path := filepath.Join(dir, "art.txt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store (fresh LRU) must detect, quarantine, recompute.
	s2 := NewStore(4, dir)
	calls := 0
	v, out, err := s2.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		calls++
		return "recomputed", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tier != "" || calls != 1 || v.(string) != "recomputed" {
		t.Errorf("corrupt artifact served: out=%+v calls=%d v=%v", out, calls, v)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt artifact not quarantined: %v", err)
	}
	if q := s2.Stats().Tiers[TierDisk].Quarantined; q != 1 {
		t.Errorf("disk tier quarantined = %d, want 1", q)
	}
	// The recompute republished a good artifact over the corrupt name.
	s3 := NewStore(4, dir)
	v, out, err = s3.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		t.Error("recompute ran against the republished artifact")
		return nil, nil
	})
	if err != nil || out.Tier != TierDisk || v.(string) != "recomputed" {
		t.Errorf("republished artifact not served: out=%+v v=%v err=%v", out, v, err)
	}
}

// TestUnframedDiskArtifactQuarantined pins that frames are mandatory:
// plain codec bytes with no header are never decoded, even though the
// codec would accept them. The file is renamed *.corrupt and the
// resolve recomputes and republishes a framed artifact.
func TestUnframedDiskArtifactQuarantined(t *testing.T) {
	dir := t.TempDir()
	codec := testCodec{name: "art.txt", persist: true}
	path := filepath.Join(dir, "art.txt")
	if err := os.WriteFile(path, []byte("unframed-artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(4, dir)
	v, out, err := s.Resolve(context.Background(), "test", testKey(1), codec, func(context.Context) (any, error) {
		return "recomputed", nil
	})
	if err != nil || out.Cached || v.(string) != "recomputed" {
		t.Fatalf("unframed artifact served: out=%+v v=%v err=%v", out, v, err)
	}
	if data, err := os.ReadFile(path + ".corrupt"); err != nil || string(data) != "unframed-artifact" {
		t.Errorf("unframed artifact not quarantined: %q, %v", data, err)
	}
	if q := s.Stats().Tiers[TierDisk].Quarantined; q != 1 {
		t.Errorf("disk tier quarantined = %d, want 1", q)
	}
	if data, err := os.ReadFile(path); err != nil || VerifyFrame(data) != nil {
		t.Errorf("recompute did not republish a framed artifact: %v", err)
	}
}

// TestDiskBreaker drives the disk tier against an unwritable directory
// (the path is a regular file) until its breaker trips, checks the
// store keeps serving memory-only with probes paced by operation
// count, then repairs the disk and watches a probe close the breaker.
func TestDiskBreaker(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "store")
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	codec := testCodec{name: "art.txt", persist: true}
	ctx := context.Background()
	s := NewStore(4, dir)
	// Tier ops are driven through Put directly so each call is exactly
	// one breaker-gated operation; Resolve interleaves a load and a
	// save per miss, which would obscure the pacing arithmetic.
	tier := s.Tiers()[0]
	ref := Ref{Key: testKey(1), Name: codec.Filename()}

	for i := 0; i < diskBreakerThreshold; i++ {
		tier.Put(ctx, ref, []byte("v"))
	}
	disk := func() TierStats { return s.Stats().Tiers[TierDisk] }
	if got := disk().State; got != TierDegraded {
		t.Fatalf("disk state after %d failures = %q, want %q", diskBreakerThreshold, got, TierDegraded)
	}
	errsAtTrip := disk().Errors

	// While open, ops are skipped between probes: the next
	// diskProbeInterval-1 puts must not touch the device at all.
	for i := 0; i < diskProbeInterval-1; i++ {
		tier.Put(ctx, ref, []byte(fmt.Sprintf("v%d", i)))
	}
	if got := disk().Errors; got != errsAtTrip {
		t.Errorf("skipped ops still hit the disk: errors %d → %d", errsAtTrip, got)
	}
	// The next op is the probe; the disk is still broken, so it fails.
	tier.Put(ctx, ref, []byte("probe"))
	if got := disk().Errors; got != errsAtTrip+1 {
		t.Errorf("probe did not hit the disk: errors %d → %d", errsAtTrip, got)
	}
	if got := disk().State; got != TierDegraded {
		t.Errorf("failed probe closed the breaker: %q", got)
	}

	// Degraded, the store must still serve resolves from memory,
	// without touching the device (both the load and the save of the
	// miss are skipped ops).
	v, _, err := s.Resolve(ctx, "test", testKey(1), codec, func(context.Context) (any, error) {
		return "served", nil
	})
	if err != nil || v.(string) != "served" {
		t.Fatalf("resolve failed under disk degradation: v=%v err=%v", v, err)
	}
	if got := disk().Errors; got != errsAtTrip+1 {
		t.Errorf("degraded resolve hit the disk: errors %d → %d", errsAtTrip+1, got)
	}

	// Repair the disk; the next admitted probe succeeds and closes the
	// breaker.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < diskProbeInterval; i++ {
		tier.Put(ctx, ref, []byte("recovered"))
	}
	if got := disk().State; got != TierOK {
		t.Errorf("disk state after repair = %q, want %q", got, TierOK)
	}
	// Closed again: writes flow to disk normally.
	tier.Put(ctx, ref, []byte("recovered"))
	if _, err := os.Stat(filepath.Join(dir, "art.txt")); err != nil {
		t.Errorf("recovered disk has no artifact: %v", err)
	}
}

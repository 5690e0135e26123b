package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fgbs/internal/ir"
)

func newTestRegistry(dir string) *registry {
	return newRegistry(Config{Seed: 1, ProfileDir: dir, Programs: testPrograms}, newBreakerSet(0, 0, nil))
}

func TestRegistryPersistsProfiles(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(dir)
	defer r.Close()
	prof, _, err := r.Profile(context.Background(), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	// Profiles persist only under the key-qualified name, never the
	// bare <suite>.prof.
	keyed, err := filepath.Glob(filepath.Join(dir, "tiny-*.prof"))
	if err != nil || len(keyed) != 1 {
		t.Fatalf("keyed profile files = %v (err %v), want exactly one", keyed, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tiny.prof")); !os.IsNotExist(err) {
		t.Fatalf("bare filename was written (stat err %v)", err)
	}

	// A second registry over the same directory loads instead of
	// rebuilding, and the loaded profile matches.
	r2 := newTestRegistry(dir)
	defer r2.Close()
	prof2, _, err := r2.Profile(context.Background(), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if r2.diskLoads.Load() != 1 {
		t.Errorf("diskLoads = %d, want 1", r2.diskLoads.Load())
	}
	if prof2.N() != prof.N() {
		t.Errorf("loaded profile has %d codelets, want %d", prof2.N(), prof.N())
	}
	for i := 0; i < prof.N(); i++ {
		if prof2.RefInApp[i] != prof.RefInApp[i] {
			t.Fatalf("loaded profile differs at codelet %d", i)
		}
	}
}

func TestRegistryRebuildsOnCorruptCache(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(dir)
	if _, _, err := r.Profile(context.Background(), "tiny"); err != nil {
		t.Fatal(err)
	}
	r.Close()
	keyed, err := filepath.Glob(filepath.Join(dir, "tiny-*.prof"))
	if err != nil || len(keyed) != 1 {
		t.Fatalf("keyed profile files = %v (err %v), want exactly one", keyed, err)
	}
	// Unframed junk under the keyed name: quarantined, never decoded.
	if err := os.WriteFile(keyed[0], []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := newTestRegistry(dir)
	defer r2.Close()
	prof, _, err := r2.Profile(context.Background(), "tiny")
	if err != nil {
		t.Fatalf("corrupt cache should trigger a rebuild, got %v", err)
	}
	if prof.N() == 0 || r2.diskLoads.Load() != 0 {
		t.Errorf("N = %d, diskLoads = %d", prof.N(), r2.diskLoads.Load())
	}
	if _, err := os.Stat(keyed[0] + ".corrupt"); err != nil {
		t.Errorf("corrupt profile not quarantined: %v", err)
	}
}

func TestRegistryRetriesAfterError(t *testing.T) {
	calls := 0
	r := newRegistry(Config{Seed: 1, Programs: func(name string) ([]*ir.Program, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return testPrograms("tiny")
	}}, newBreakerSet(0, 0, nil))
	defer r.Close()
	if _, _, err := r.Profile(context.Background(), "tiny"); err == nil {
		t.Fatal("first call should fail")
	}
	// The failed entry must not wedge the suite: the next request
	// retries and succeeds.
	prof, _, err := r.Profile(context.Background(), "tiny")
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if prof == nil || calls != 2 {
		t.Errorf("prof=%v calls=%d", prof, calls)
	}
	if r.builds.Load() != 2 {
		t.Errorf("builds = %d, want 2", r.builds.Load())
	}
}

func TestRegistryWaiterHonorsContext(t *testing.T) {
	block := make(chan struct{})
	r := newRegistry(Config{Seed: 1, Programs: func(name string) ([]*ir.Program, error) {
		<-block
		return testPrograms("tiny")
	}}, newBreakerSet(0, 0, nil))
	defer r.Close()
	defer close(block)

	// Kick off the build with a background waiter.
	go r.Profile(context.Background(), "tiny")

	// A waiter with an expired context gives up without killing the
	// build for everyone else.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.Profile(ctx, "tiny"); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRegistryLoaded(t *testing.T) {
	r := newTestRegistry("")
	defer r.Close()
	if got := r.Loaded(); len(got) != 0 {
		t.Fatalf("fresh registry reports %d loaded suites", len(got))
	}
	if _, _, err := r.Profile(context.Background(), "tiny"); err != nil {
		t.Fatal(err)
	}
	got := r.Loaded()
	if len(got) != 1 || got["tiny"] == nil {
		t.Errorf("Loaded = %v, want tiny", got)
	}
}

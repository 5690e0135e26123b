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
	return newRegistry(Config{Seed: 1, ProfileDir: dir, Programs: testPrograms}, newBreakerSet(nil))
}

func TestRegistryPersistsProfiles(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(dir)
	defer r.Close()
	st, _, err := r.Staged(context.Background(), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	prof := st.Profile()
	// The profile persists as exactly one file, named by its key.
	keyed, err := filepath.Glob(filepath.Join(dir, "*"))
	if want := filepath.Join(dir, st.Key().String()+".art"); err != nil || len(keyed) != 1 || keyed[0] != want {
		t.Fatalf("profile files = %v (err %v), want exactly %s", keyed, err, want)
	}

	// A second registry over the same directory loads instead of
	// rebuilding, and the loaded profile matches.
	r2 := newTestRegistry(dir)
	defer r2.Close()
	st2, _, err := r2.Staged(context.Background(), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	prof2 := st2.Profile()
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
	if _, _, err := r.Staged(context.Background(), "tiny"); err != nil {
		t.Fatal(err)
	}
	r.Close()
	keyed, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(keyed) != 1 {
		t.Fatalf("keyed profile files = %v (err %v), want exactly one", keyed, err)
	}
	// Unframed junk under the keyed name: quarantined, never decoded.
	if err := os.WriteFile(keyed[0], []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := newTestRegistry(dir)
	defer r2.Close()
	st, _, err := r2.Staged(context.Background(), "tiny")
	if err != nil {
		t.Fatalf("corrupt cache should trigger a rebuild, got %v", err)
	}
	if st.Profile().N() == 0 || r2.diskLoads.Load() != 0 {
		t.Errorf("N = %d, diskLoads = %d", st.Profile().N(), r2.diskLoads.Load())
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
	}}, newBreakerSet(nil))
	defer r.Close()
	if _, _, err := r.Staged(context.Background(), "tiny"); err == nil {
		t.Fatal("first call should fail")
	}
	// The failed entry must not wedge the suite: the next request
	// retries and succeeds.
	st, _, err := r.Staged(context.Background(), "tiny")
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if st == nil || calls != 2 {
		t.Errorf("st=%v calls=%d", st, calls)
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
	}}, newBreakerSet(nil))
	defer r.Close()
	defer close(block)

	// Kick off the build with a background waiter.
	go r.Staged(context.Background(), "tiny")

	// A waiter with an expired context gives up without killing the
	// build for everyone else.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.Staged(ctx, "tiny"); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRegistryLoaded(t *testing.T) {
	r := newTestRegistry("")
	defer r.Close()
	if got := r.Loaded(); len(got) != 0 {
		t.Fatalf("fresh registry reports %d loaded suites", len(got))
	}
	if _, _, err := r.Staged(context.Background(), "tiny"); err != nil {
		t.Fatal(err)
	}
	got := r.Loaded()
	if len(got) != 1 || got["tiny"] == nil {
		t.Errorf("Loaded = %v, want tiny", got)
	}
}

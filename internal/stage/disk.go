package stage

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"fgbs/internal/fault"
)

// DiskBackend is the durable byte tier: one file per artifact under a
// shared directory, written via tmp + fsync + rename + parent-dir
// fsync so a published name never points at torn bytes. The tier
// stores whatever bytes it is handed — in a standard chain that is the
// framed form, because the Framed decorator wraps it.
type DiskBackend struct {
	dir string
}

// NewDiskBackend builds a disk tier rooted at dir.
func NewDiskBackend(dir string) *DiskBackend {
	return &DiskBackend{dir: dir}
}

// Name identifies the tier.
func (d *DiskBackend) Name() string { return TierDisk }

// Dir returns the tier's directory.
func (d *DiskBackend) Dir() string { return d.dir }

// Get reads ref's file. A missing file is a clean miss (ErrNotFound);
// any other failure is an I/O error for the breaker.
func (d *DiskBackend) Get(ctx context.Context, ref Ref) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(d.dir, ref.Name))
	switch {
	case err == nil:
		return data, nil
	case errors.Is(err, fs.ErrNotExist):
		return nil, ErrNotFound
	default:
		return nil, err
	}
}

// Put writes data under ref.Name durably: encode-before-open already
// happened upstream, so a failed write never publishes anything — the
// tmp file is removed and the error feeds the breaker.
func (d *DiskBackend) Put(ctx context.Context, ref Ref, data []byte) (bool, error) {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return false, err
	}
	// The tmp name must be unique per writer: the documented workflows
	// share one directory between processes (fgbs -stagedir and fgbsd
	// -profiledir), and a fixed tmp path would let two concurrent
	// persists of the same filename interleave writes and rename a
	// corrupt artifact.
	f, err := os.CreateTemp(d.dir, ref.Name+".tmp*")
	if err != nil {
		return false, err
	}
	tmp := f.Name()
	fail := func(err error) (bool, error) {
		f.Close()
		os.Remove(tmp)
		return false, err
	}
	// The bytes are written in two halves around the mid-write
	// crashpoint: a crash here leaves a torn tmp file the published
	// name never points at, which is exactly what the frame (and the
	// recovery harness) must tolerate.
	half := len(data) / 2
	if _, err := f.Write(data[:half]); err != nil {
		return fail(err)
	}
	fault.Crashpoint(fault.CrashMidArtifactWrite)
	if _, err := f.Write(data[half:]); err != nil {
		return fail(err)
	}
	// fsync before rename: the published name must never point at bytes
	// that exist only in the page cache.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return false, err
	}
	fault.Crashpoint(fault.CrashBeforeRename)
	if err := os.Rename(tmp, filepath.Join(d.dir, ref.Name)); err != nil {
		os.Remove(tmp)
		return false, err
	}
	// The rename is only durable once the directory entry is.
	if dir, err := os.Open(d.dir); err == nil {
		dir.Sync()
		dir.Close()
	}
	return true, nil
}

// Delete removes ref's file. A missing file is not an error.
func (d *DiskBackend) Delete(ctx context.Context, ref Ref) error {
	if err := os.Remove(filepath.Join(d.dir, ref.Name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Quarantine moves the corrupt artifact aside as <path>.corrupt — kept
// for forensics, never silently deleted, and out of the load path so
// the next resolve recomputes.
func (d *DiskBackend) Quarantine(ctx context.Context, ref Ref) {
	path := filepath.Join(d.dir, ref.Name)
	os.Rename(path, path+".corrupt") // a missing file has nothing to move aside
}

// Len counts the published artifacts in the directory (tmp and
// quarantined files excluded). It reads the directory on every call;
// callers are stats paths, not hot paths.
func (d *DiskBackend) Len() int {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if filepath.Ext(name) == ".corrupt" || strings.Contains(name, ".tmp") {
			continue
		}
		n++
	}
	return n
}

// Stats reports the tier's base row; traffic counters come from the
// decorators.
func (d *DiskBackend) Stats() TierStats {
	return TierStats{State: TierOK, Entries: d.Len()}
}

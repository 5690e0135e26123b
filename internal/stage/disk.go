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

// diskDevice is the durable byte device: one file per artifact under
// a shared directory, each published by Publish.
type diskDevice struct {
	dir string
}

// get reads ref's file. A missing file is a clean miss (ErrNotFound);
// any other failure is an I/O error for the breaker.
func (d *diskDevice) get(ctx context.Context, ref Ref) ([]byte, error) {
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

// put writes data under ref.Name durably: encode-before-open already
// happened upstream, so a failed write never publishes anything and
// the error feeds the breaker.
func (d *diskDevice) put(ctx context.Context, ref Ref, data []byte) (bool, error) {
	if err := Publish(d.dir, ref.Name, data, fault.CrashMidArtifactWrite, fault.CrashBeforeRename); err != nil {
		return false, err
	}
	return true, nil
}

// Publish durably writes data as dir/name — the one durable write path
// for every file the project keeps (artifacts and job records): a
// uniquely named tmp file in dir, fsync, rename over name, then fsync
// of dir. A crash at any instant leaves either the old file or the new
// one under name, never torn bytes; a failed write removes its tmp
// file and publishes nothing. midWrite and beforeRename name the
// crashpoints (fault.Crashpoint) fired halfway through the bytes and
// just before the rename; "" fires none.
func Publish(dir, name string, data []byte, midWrite, beforeRename string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// The tmp name must be unique per writer: the documented workflows
	// share one directory between processes (fgbs -stagedir and fgbsd
	// -profiledir), and a fixed tmp path would let two concurrent
	// writers of the same name interleave their bytes and rename a
	// corrupt file.
	f, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// The bytes are written in two halves around the mid-write
	// crashpoint: a crash there leaves a torn tmp file the published
	// name never points at, which is exactly what the frame (and the
	// recovery harness) must tolerate.
	half := len(data) / 2
	if _, err := f.Write(data[:half]); err != nil {
		return fail(err)
	}
	fault.Crashpoint(midWrite)
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
		return err
	}
	fault.Crashpoint(beforeRename)
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename is only durable once the directory entry is.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// quarantine moves the corrupt artifact aside as <path>.corrupt — kept
// for forensics, never silently deleted, and out of the load path so
// the next resolve recomputes.
func (d *diskDevice) quarantine(ref Ref) {
	path := filepath.Join(d.dir, ref.Name)
	os.Rename(path, path+".corrupt") // a missing file has nothing to move aside
}

// entries counts the published artifacts in the directory (tmp and
// quarantined files excluded). It reads the directory on every call;
// callers are stats paths, not hot paths.
func (d *diskDevice) entries() int {
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

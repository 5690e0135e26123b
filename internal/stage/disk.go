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

// artExt ends every artifact file's name: the disk tier stores key k's
// bytes as <dir>/<k>.art, so the directory itself indexes the keys
// this node holds and no caller ever names a file.
const artExt = ".art"

// diskDevice is the durable byte device: one file per artifact under
// a shared directory, each published by Publish.
type diskDevice struct {
	dir string
}

// path is key's artifact file.
func (d *diskDevice) path(key Key) string {
	return filepath.Join(d.dir, key.String()+artExt)
}

// get reads key's file. A missing file is a clean miss (ErrNotFound);
// any other failure is an I/O error for the breaker.
func (d *diskDevice) get(ctx context.Context, key Key) ([]byte, error) {
	data, err := os.ReadFile(d.path(key))
	switch {
	case err == nil:
		return data, nil
	case errors.Is(err, fs.ErrNotExist):
		return nil, ErrNotFound
	default:
		return nil, err
	}
}

// put writes data as key's file durably: encode-before-open already
// happened upstream, so a failed write never publishes anything and
// the error feeds the breaker.
func (d *diskDevice) put(ctx context.Context, key Key, data []byte) (bool, error) {
	if err := Publish(d.dir, key.String()+artExt, data, fault.CrashMidArtifactWrite, fault.CrashBeforeRename); err != nil {
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

// quarantine moves the corrupt artifact aside as <key>.art.corrupt —
// kept for forensics, never silently deleted, and out of the load path
// so the next resolve recomputes.
func (d *diskDevice) quarantine(key Key) {
	path := d.path(key)
	os.Rename(path, path+".corrupt") // a missing file has nothing to move aside
}

// keys lists the artifacts published in the directory: every
// <valid key>.art file. Tmp files, quarantined *.corrupt files, the
// jobs/ directory and any other name are not artifacts. os.ReadDir
// sorts by name, and every listed name is a fixed-length key plus the
// same extension, so the keys come back sorted. The scan reads the
// directory on every call; callers are the artifact index and stats
// paths, not hot paths.
func (d *diskDevice) keys() []Key {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil
	}
	var keys []Key
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), artExt)
		if k := Key(name); ok && !e.IsDir() && k.Valid() {
			keys = append(keys, k)
		}
	}
	return keys
}

package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"

	"fgbs/internal/corpus"
	"fgbs/internal/ir"
)

// goldenSeed is the reference seed the golden profile is pinned on.
const goldenSeed = 20140215

// goldenProfileSHA256 is the sha256 of the SaveJSON encoding of the
// golden corpus's profile. It pins every simulator counter that reaches
// a profile byte: a change to the cache model, the simulator or the
// cost model that is meant to be byte-identical must leave it alone.
// It was recorded on amd64, where the compiler never fuses x*y+z into
// one FMA instruction; arm64, ppc64le, s390x, riscv64 and loong64 may,
// which rounds differently and moves float bytes of the profile.
const goldenProfileSHA256 = "85dadf98fe6e9ba9bfffd762a7a66669e580924e2a67459818cc07a48ee000aa"

// goldenCorpus is one standalone codelet of every corpus family (so
// the spmv and histogram indirect references are in) plus one composed
// application over shared arrays. The standalone codelets' in-app runs
// flush the hierarchy between invocations while the application's warm
// codelets keep it; every standalone run preloads its memory dump; and
// the stores produce dirty write-backs on every machine.
func goldenCorpus() ([]*ir.Program, error) {
	progs, err := corpus.Mixed(goldenSeed, len(corpus.FamilyNames()), 1)
	if err != nil {
		return nil, err
	}
	apps, err := corpus.ComposeApps(goldenSeed, 1, 3, 1)
	if err != nil {
		return nil, err
	}
	return append(progs, apps...), nil
}

var (
	goldenOnce sync.Once
	goldenProf *Profile
	goldenErr  error
)

// goldenProfile is the golden corpus's profile on the reference seed,
// built once per test binary.
func goldenProfile(tb testing.TB) *Profile {
	tb.Helper()
	goldenOnce.Do(func() {
		var progs []*ir.Program
		if progs, goldenErr = goldenCorpus(); goldenErr == nil {
			goldenProf, goldenErr = NewProfileContext(context.Background(), progs, Options{Seed: goldenSeed})
		}
	})
	if goldenErr != nil {
		tb.Fatal(goldenErr)
	}
	return goldenProf
}

// TestProfileGolden pins the full profile of a small fixed corpus on
// the reference seed to a recorded hash.
func TestProfileGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hash recorded on amd64; FMA fusion on %s changes float bytes", runtime.GOARCH)
	}
	prof := goldenProfile(t)
	var buf bytes.Buffer
	if err := prof.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenProfileSHA256 {
		t.Errorf("golden profile sha256 = %s, want %s", got, goldenProfileSHA256)
	}
}

package pipeline

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"fgbs/internal/fault"
	"fgbs/internal/ir"
	"fgbs/internal/measure"
)

// encodeProfile is p's binary encoding, failing the test on error.
func encodeProfile(tb testing.TB, p *Profile) []byte {
	tb.Helper()
	b, err := p.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// decodeSuite decodes data against progs' detected codelets, the
// binding the profile stage's codec makes against its detect artifact.
func decodeSuite(tb testing.TB, data []byte, progs []*ir.Program) (*Profile, error) {
	tb.Helper()
	ps, cs, err := Detect(progs)
	if err != nil {
		tb.Fatal(err)
	}
	return decodeProfile(data, ps, cs)
}

// renderJSON is p's canonical SaveJSON rendering.
func renderJSON(tb testing.TB, p *Profile) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := p.SaveJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var (
	degradedOnce sync.Once
	degradedProf *Profile
	degradedErr  error
)

// degradedProfile is a chaosSuite profile carrying both failure
// markers: beta_gather loses its reference measurements everywhere and
// alpha_copy its Atom measurements. chaosSuite has tinySuite's
// programs and codelet names, so the profile decodes against either.
func degradedProfile(tb testing.TB) *Profile {
	tb.Helper()
	degradedOnce.Do(func() {
		faults := &fault.Profile{Seed: chaosSeed, Rules: []fault.Rule{
			{Codelet: "beta_gather", PermanentRate: 1},
			{Machine: "Atom", Codelet: "alpha_copy", PermanentRate: 1},
		}}
		degradedProf, degradedErr = NewProfile(chaosSuite(), Options{Seed: 1, Measurer: chaosMeasurer(faults, measure.Config{})})
	})
	if degradedErr != nil {
		tb.Fatal(degradedErr)
	}
	if degradedProf.RefFailed == nil || degradedProf.TargetFailed == nil {
		tb.Fatal("degraded fixture lacks a failure marker")
	}
	return degradedProf
}

// reorderedProfile is a clean p with its first two codelets swapped
// in every per-codelet slice: a consistent profile of the same suite,
// listed out of Detect order.
func reorderedProfile(p *Profile) *Profile {
	q := *p
	q.Progs = swapFirstTwo(p.Progs)
	q.Codelets = swapFirstTwo(p.Codelets)
	q.RefInApp = swapFirstTwo(p.RefInApp)
	q.RefStandalone = swapFirstTwo(p.RefStandalone)
	q.IllBehaved = swapFirstTwo(p.IllBehaved)
	q.Discarded = swapFirstTwo(p.Discarded)
	q.Features = swapFirstTwo(p.Features)
	q.TargetInApp = make([][]float64, len(p.TargetInApp))
	q.TargetStandalone = make([][]float64, len(p.TargetStandalone))
	for t := range p.Targets {
		q.TargetInApp[t] = swapFirstTwo(p.TargetInApp[t])
		q.TargetStandalone[t] = swapFirstTwo(p.TargetStandalone[t])
	}
	return &q
}

func swapFirstTwo[T any](s []T) []T {
	s = slices.Clone(s)
	s[0], s[1] = s[1], s[0]
	return s
}

func TestProfileRoundTrip(t *testing.T) {
	prof := tinyProfile(t)
	back, err := decodeSuite(t, encodeProfile(t, prof), tinySuite())
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != prof.N() {
		t.Fatalf("N = %d, want %d", back.N(), prof.N())
	}
	if back.Ref.Name != prof.Ref.Name {
		t.Error("reference machine lost")
	}
	for i := 0; i < prof.N(); i++ {
		if back.Codelets[i].Name != prof.Codelets[i].Name {
			t.Fatalf("codelet %d misbound: %s vs %s", i, back.Codelets[i].Name, prof.Codelets[i].Name)
		}
		if back.RefInApp[i] != prof.RefInApp[i] {
			t.Error("reference times changed")
		}
		if back.IllBehaved[i] != prof.IllBehaved[i] {
			t.Error("screening flags changed")
		}
		for tt := range prof.Targets {
			if back.TargetInApp[tt][i] != prof.TargetInApp[tt][i] {
				t.Error("target times changed")
			}
		}
	}
	if !bytes.Equal(renderJSON(t, back), renderJSON(t, prof)) {
		t.Error("SaveJSON of the decoded profile differs from the original's")
	}
	// A loaded profile must drive the full downstream pipeline.
	sub, err := back.Subset(tinyMask, 3)
	if err != nil {
		t.Fatal(err)
	}
	origSub, err := prof.Subset(tinyMask, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sub.Selection.Labels {
		if sub.Selection.Labels[i] != origSub.Selection.Labels[i] {
			t.Fatal("clustering differs after round trip")
		}
	}
	ev, err := back.Evaluate(sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	origEv, err := prof.Evaluate(origSub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Summary.Median != origEv.Summary.Median {
		t.Error("evaluation differs after round trip")
	}
}

// TestProfileBinaryPreservesSaveJSON: decoding keeps every byte of the
// canonical rendering, for the golden corpus and for a profile with
// both failure markers, and re-encoding gives back the exact artifact.
func TestProfileBinaryPreservesSaveJSON(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof func(testing.TB) *Profile
	}{
		{"golden", goldenProfile},
		{"degraded", degradedProfile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.prof(t)
			enc := encodeProfile(t, orig)
			back, err := decodeProfile(enc, orig.Progs, orig.Codelets)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderJSON(t, back), renderJSON(t, orig)) {
				t.Error("SaveJSON of the decoded profile differs from the original's")
			}
			if !bytes.Equal(encodeProfile(t, back), enc) {
				t.Error("re-encoding the decoded profile changed its bytes")
			}
		})
	}
}

func TestReadProfileRejectsWrongSuite(t *testing.T) {
	enc := encodeProfile(t, tinyProfile(t))
	// A suite with a renamed codelet must be rejected.
	other := tinySuite()
	other[0].Codelets[0].Name = "renamed"
	if _, err := decodeSuite(t, enc, other); err == nil {
		t.Error("mismatched suite accepted")
	}
}

func TestReadProfileRejectsWrongVersion(t *testing.T) {
	// A profile encoded by a build with another layout version is
	// rejected with that version named, not with a decoding internals
	// error; a JSON profile is not a binary profile at all.
	stale := encodeProfile(t, tinyProfile(t))
	binary.LittleEndian.PutUint32(stale[len(profileMagic):], 99)
	if _, err := decodeSuite(t, stale, tinySuite()); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("version 99: error = %v, want the version named", err)
	}
	if _, err := decodeSuite(t, []byte(`{"version": 1, "reference": "Nehalem"}`), tinySuite()); err == nil {
		t.Error("JSON layout: accepted")
	}
}

func TestReadProfileRejectsTruncated(t *testing.T) {
	full := encodeProfile(t, tinyProfile(t))
	ps, cs, err := Detect(tinySuite())
	if err != nil {
		t.Fatal(err)
	}
	// A partially written cache (disk full, killed save) at any cut
	// point must fail loudly, never yield a half-filled profile.
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeProfile(full[:cut], ps, cs); err == nil {
			t.Fatalf("profile cut at byte %d of %d accepted", cut, len(full))
		}
	}
}

func TestReadProfileRejectsMissingCodelet(t *testing.T) {
	enc := encodeProfile(t, tinyProfile(t))
	// A suite that lost a codelet since the profile was saved (count
	// mismatch) must be rejected.
	smaller := tinySuite()
	smaller[0].Codelets = smaller[0].Codelets[:len(smaller[0].Codelets)-1]
	_, err := decodeSuite(t, enc, smaller)
	if err == nil || !strings.Contains(err.Error(), "codelets") {
		t.Errorf("shrunken suite error = %v, want codelet count mismatch", err)
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	good := encodeProfile(t, tinyProfile(t))
	ps, cs, err := Detect(tinySuite())
	if err != nil {
		t.Fatal(err)
	}
	edit := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), good...))
	}
	// flagsAt is the refFailed flag byte; the name section follows the
	// tgtFailed flag.
	flagsAt := profileHeaderLen - 2
	nameAt := profileHeaderLen
	cases := map[string][]byte{
		"not a profile":   []byte("not json"),
		"magic only":      []byte(profileMagic),
		"trailing byte":   edit(func(b []byte) []byte { return append(b, 0) }),
		"bool byte 2":     edit(func(b []byte) []byte { b[len(b)-1] = 2; return b }),
		"flag byte 2":     edit(func(b []byte) []byte { b[flagsAt] = 2; return b }),
		"unknown machine": edit(func(b []byte) []byte { b[nameAt+4] = 'X'; return b }),
	}
	// A suite codelet listed twice (and so another never) is rejected
	// at the position of the repeat, even though every name is in the
	// suite.
	dup := *tinyProfile(t)
	dup.Codelets = append([]*ir.Codelet(nil), dup.Codelets...)
	dup.Codelets[1] = dup.Codelets[0]
	if _, err := decodeProfile(encodeProfile(t, &dup), ps, cs); err == nil || !strings.Contains(err.Error(), "codelet 1 is") {
		t.Errorf("duplicate codelet: error = %v, want a position-1 rejection", err)
	}
	// A valid profile of the same suite listed out of Detect order
	// cannot have been filed under the suite's key: it is rejected at
	// the first position that differs.
	if _, err := decodeProfile(encodeProfile(t, reorderedProfile(tinyProfile(t))), ps, cs); err == nil || !strings.Contains(err.Error(), "codelet 0 is") {
		t.Errorf("reordered codelets: error = %v, want a position-0 rejection", err)
	}
	for name, data := range cases {
		if _, err := decodeProfile(data, ps, cs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadProfileForgedCountDoesNotAllocate: a header claiming 2^32-1
// targets or a 2^32-1-wide feature row is rejected against the bytes
// that follow, before anything is sized by the forged count.
func TestReadProfileForgedCountDoesNotAllocate(t *testing.T) {
	good := encodeProfile(t, tinyProfile(t))
	ps, cs, err := Detect(tinySuite())
	if err != nil {
		t.Fatal(err)
	}
	countAt := map[string]int{"targets": len(profileMagic) + 4, "features": len(profileMagic) + 12}
	for name, at := range countAt {
		data := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(data[at:], 0xFFFFFFFF)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeProfile(data, ps, cs)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("forged %s count accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("forged %s count allocated %d bytes before failing", name, grew)
		}
	}
}

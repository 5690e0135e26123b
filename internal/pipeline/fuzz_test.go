package pipeline

import (
	"bytes"
	"testing"
)

// FuzzDecodeProfile: arbitrary input must produce an error or a valid
// profile — never a panic or an inconsistent result — and an accepted
// input must re-encode to exactly its own bytes, so the strict decoder
// admits one encoding per profile.
//
// The seed profiles are built on chaosSuite, tinySuite scaled down
// (same programs and codelet names, so they decode against tinySuite):
// every fuzz worker builds them under coverage instrumentation, and
// tinySuite's full-size simulation would use up a short -fuzztime
// before the first mutation runs.
func FuzzDecodeProfile(f *testing.F) {
	clean, err := NewProfile(chaosSuite(), Options{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	enc := encodeProfile(f, clean)
	f.Add(enc)
	f.Add(encodeProfile(f, degradedProfile(f)))
	f.Add(encodeProfile(f, reorderedProfile(clean)))
	f.Add(enc[:len(enc)/2])
	f.Add(enc[:profileHeaderLen])
	f.Add(enc[:len(enc)-1])
	jsonProfile := []byte(`{"version":1}`)
	f.Add(jsonProfile)
	// Detect once: decodeProfile only reads the inventory it binds to.
	ps, cs, err := Detect(tinySuite())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := decodeProfile(jsonProfile, ps, cs); err == nil {
		f.Fatal("a JSON profile decoded as a binary one")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodeProfile(data, ps, cs)
		if err != nil {
			return
		}
		// Accepted profiles must be internally consistent.
		if len(p.RefInApp) != p.N() || len(p.Features) != p.N() {
			t.Fatal("accepted inconsistent profile")
		}
		for _, tgt := range p.TargetInApp {
			if len(tgt) != p.N() {
				t.Fatal("accepted inconsistent target measurements")
			}
		}
		re, err := p.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted profile does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("accepted profile re-encodes to different bytes")
		}
	})
}

package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"fgbs/internal/arch"
	"fgbs/internal/ir"
)

// Profile serialization. Profiling is the expensive step (Steps A-B
// simulate every codelet on every machine); persisting its outcome
// lets a session profile once and re-run subsetting experiments
// cheaply — exactly how the paper's workflow amortizes extraction cost
// across many target evaluations.
//
// The artifact stores measurements and codelet names; loading re-binds
// them to the suite's programs, which must match (the IR itself is
// code, not data). One compact binary layout serves every place a
// profile is persisted — the stage store's disk and peer tiers and the
// CLI's save/-cache file. All integers are little-endian:
//
//	magic      "fgbsprof"
//	version    uint32
//	T, N, F    uint32 each: targets, codelets, feature-row width
//	refFailed  byte, 0 or 1: whether RefFailed is present
//	tgtFailed  byte, 0 or 1: whether TargetFailed is present
//	names      reference, T targets, N × (app, codelet); each a
//	           uint32 length and its bytes
//	float64s   RefInApp[N], RefStandalone[N], Features[N×F] row-major,
//	           TargetInApp[T×N], TargetStandalone[T×N], as raw bits
//	bools      IllBehaved[N], Discarded[N], then RefFailed[N] and
//	           TargetFailed[T×N] when flagged; one byte each, 0 or 1
//
// The decoder is strict: every count is checked against the bytes that
// remain before anything is allocated, and bool bytes other than 0/1,
// trailing bytes and unknown machines are errors. So a decoded profile
// re-encodes to exactly the bytes it came from.

// profileMagic opens every binary profile.
const profileMagic = "fgbsprof"

// profileVersion is the binary layout's version. A profile of any
// other version is rejected with a hint to regenerate it.
const profileVersion = 1

// profileHeaderLen is the fixed-size prefix: magic, version, three
// counts and the two failure-marker flags.
const profileHeaderLen = len(profileMagic) + 4 + 3*4 + 2

// AppendBinary appends the profile's binary encoding to dst. It fails
// on a profile whose slices disagree on the codelet or target count,
// or whose feature rows differ in width — no pipeline build produces
// one.
func (p *Profile) AppendBinary(dst []byte) ([]byte, error) {
	n, t := len(p.Codelets), len(p.Targets)
	f := 0
	if n > 0 {
		f = len(p.Features[0])
	}
	if len(p.Progs) != n || len(p.RefInApp) != n || len(p.RefStandalone) != n ||
		len(p.IllBehaved) != n || len(p.Discarded) != n || len(p.Features) != n ||
		len(p.TargetInApp) != t || len(p.TargetStandalone) != t ||
		(p.RefFailed != nil && len(p.RefFailed) != n) ||
		(p.TargetFailed != nil && len(p.TargetFailed) != t) {
		return dst, fmt.Errorf("pipeline: encoding profile: inconsistent measurement arrays")
	}
	for i, row := range p.Features {
		if row == nil || len(row) != f {
			return dst, fmt.Errorf("pipeline: encoding profile: feature row %d has width %d, want %d", i, len(row), f)
		}
	}
	for i := 0; i < t; i++ {
		if len(p.TargetInApp[i]) != n || len(p.TargetStandalone[i]) != n ||
			(p.TargetFailed != nil && len(p.TargetFailed[i]) != n) {
			return dst, fmt.Errorf("pipeline: encoding profile: target %d measurement length mismatch", i)
		}
	}

	names := len(p.Ref.Name)
	for _, m := range p.Targets {
		names += len(m.Name)
	}
	for i, c := range p.Codelets {
		names += len(p.Progs[i].Name) + len(c.Name)
	}
	size := profileHeaderLen + 4*(1+t+2*n) + names + 8*(2*n+n*f+2*t*n) + 2*n
	if p.RefFailed != nil {
		size += n
	}
	if p.TargetFailed != nil {
		size += t * n
	}
	dst = slices.Grow(dst, size)

	le := binary.LittleEndian
	dst = append(dst, profileMagic...)
	dst = le.AppendUint32(dst, profileVersion)
	dst = le.AppendUint32(dst, uint32(t))
	dst = le.AppendUint32(dst, uint32(n))
	dst = le.AppendUint32(dst, uint32(f))
	dst = appendBool(dst, p.RefFailed != nil)
	dst = appendBool(dst, p.TargetFailed != nil)
	dst = appendName(dst, p.Ref.Name)
	for _, m := range p.Targets {
		dst = appendName(dst, m.Name)
	}
	for i, c := range p.Codelets {
		dst = appendName(dst, p.Progs[i].Name)
		dst = appendName(dst, c.Name)
	}
	dst = appendFloats(dst, p.RefInApp)
	dst = appendFloats(dst, p.RefStandalone)
	for _, row := range p.Features {
		dst = appendFloats(dst, row)
	}
	for _, row := range p.TargetInApp {
		dst = appendFloats(dst, row)
	}
	for _, row := range p.TargetStandalone {
		dst = appendFloats(dst, row)
	}
	dst = appendBools(dst, p.IllBehaved)
	dst = appendBools(dst, p.Discarded)
	if p.RefFailed != nil {
		dst = appendBools(dst, p.RefFailed)
	}
	for _, row := range p.TargetFailed {
		dst = appendBools(dst, row)
	}
	return dst, nil
}

// Save writes the profile's binary encoding to w — the CLI's -cache
// file.
func (p *Profile) Save(w io.Writer) error {
	b, err := p.AppendBinary(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func appendName(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendFloats(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBools(dst []byte, vs []bool) []byte {
	for _, v := range vs {
		dst = appendBool(dst, v)
	}
	return dst
}

// ReadProfile deserializes a binary profile and re-binds it to the
// suite programs it was built from. The suite must contain exactly the
// serialized codelets, in any program order.
func ReadProfile(r io.Reader, progs []*ir.Program) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("pipeline: reading profile: %w", err)
	}
	ps, cs, err := Detect(progs)
	if err != nil {
		return nil, err
	}
	return decodeProfile(data, ps, cs)
}

// errProfileTruncated reports a profile that ends before its counts
// say it should.
var errProfileTruncated = errors.New("pipeline: profile truncated")

// profileReader walks a binary profile front to back. Every read
// checks the remaining length first, so a short input fails instead of
// panicking.
type profileReader struct {
	data []byte
	err  error
}

func (r *profileReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data) {
		r.err = errProfileTruncated
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *profileReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *profileReader) flag() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.err = fmt.Errorf("pipeline: profile has bool byte %d", b[0])
	}
	return b[0] == 1
}

// name returns the next length-prefixed name. The bytes alias the
// input; callers compare or copy them.
func (r *profileReader) name() []byte {
	return r.take(int(r.u32()))
}

func (r *profileReader) floats(dst []float64) {
	b := r.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func (r *profileReader) bools(dst []bool) {
	b := r.take(len(dst))
	for i, v := range b {
		if v > 1 {
			r.err = fmt.Errorf("pipeline: profile has bool byte %d", v)
			return
		}
		dst[i] = v == 1
	}
}

// machine resolves a serialized machine name.
func (r *profileReader) machine() *arch.Machine {
	name := r.name()
	if r.err != nil {
		return nil
	}
	m, err := arch.ByName(string(name))
	if err != nil {
		r.err = fmt.Errorf("pipeline: profile: %w", err)
	}
	return m
}

// decodeProfile decodes a binary profile against a detected codelet
// inventory (ps, cs: Detect's aligned output), binding each serialized
// codelet to the suite's by (app, name). data is only read; the
// profile keeps no reference to it.
func decodeProfile(data []byte, ps []*ir.Program, cs []*ir.Codelet) (*Profile, error) {
	if !bytes.HasPrefix(data, []byte(profileMagic)) {
		if bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
			return nil, fmt.Errorf("pipeline: profile is in the retired JSON layout — regenerate the cache")
		}
		return nil, fmt.Errorf("pipeline: not a binary profile (bad magic)")
	}
	r := &profileReader{data: data[len(profileMagic):]}
	if v := r.u32(); r.err == nil && v != profileVersion {
		return nil, fmt.Errorf("pipeline: profile cache has version %d, this build reads version %d — regenerate the cache", v, profileVersion)
	}
	t, n, f := r.u32(), r.u32(), r.u32()
	refFailed, tgtFailed := r.flag(), r.flag()
	if r.err != nil {
		return nil, r.err
	}
	if int64(n) != int64(len(cs)) {
		return nil, fmt.Errorf("pipeline: suite has %d codelets, profile has %d", len(cs), n)
	}
	if n == 0 && f != 0 {
		return nil, fmt.Errorf("pipeline: profile has feature width %d but no codelets", f)
	}
	// Every name carries at least its 4-byte length, so the counts
	// must fit in what is left before any slice is sized by them.
	if uint64(len(r.data)) < 4*(1+uint64(t)+2*uint64(n)) {
		return nil, errProfileTruncated
	}

	p := &Profile{Ref: r.machine()}
	if t > 0 {
		p.Targets = make([]*arch.Machine, t)
		for i := range p.Targets {
			p.Targets[i] = r.machine()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	p.Progs, p.Codelets = make([]*ir.Program, n), make([]*ir.Codelet, n)
	if err := bindCodelets(r, p, ps, cs); err != nil {
		return nil, err
	}

	// The rest is fixed-size: it must be exactly what the counts say.
	// n is the in-memory suite's codelet count and t is bounded by the
	// input length, so the products cannot overflow.
	cells := 2*uint64(n) + uint64(n)*uint64(f) + 2*uint64(t)*uint64(n)
	want := 8*cells + 2*uint64(n)
	if refFailed {
		want += uint64(n)
	}
	if tgtFailed {
		want += uint64(t) * uint64(n)
	}
	if got := uint64(len(r.data)); got != want {
		if got < want {
			return nil, errProfileTruncated
		}
		return nil, fmt.Errorf("pipeline: profile has %d trailing bytes", got-want)
	}

	floats := make([]float64, cells)
	r.floats(floats)
	p.RefInApp, floats = floats[:n:n], floats[n:]
	p.RefStandalone, floats = floats[:n:n], floats[n:]
	p.Features = make([][]float64, n)
	for i := range p.Features {
		p.Features[i], floats = floats[:f:f], floats[f:]
	}
	if t > 0 {
		p.TargetInApp = make([][]float64, t)
		p.TargetStandalone = make([][]float64, t)
		for i := range p.TargetInApp {
			p.TargetInApp[i], floats = floats[:n:n], floats[n:]
		}
		for i := range p.TargetStandalone {
			p.TargetStandalone[i], floats = floats[:n:n], floats[n:]
		}
	}

	bs := make([]bool, len(r.data))
	r.bools(bs)
	p.IllBehaved, bs = bs[:n:n], bs[n:]
	p.Discarded, bs = bs[:n:n], bs[n:]
	if refFailed {
		p.RefFailed, bs = bs[:n:n], bs[n:]
	}
	if tgtFailed {
		p.TargetFailed = make([][]bool, t)
		for i := range p.TargetFailed {
			p.TargetFailed[i], bs = bs[:n:n], bs[n:]
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

// bindCodelets reads the N (app, codelet) name pairs and binds each to
// the suite's codelet of that name. The encoder writes Detect order,
// so position j is tried first; any other order falls back to an
// index. Every suite codelet must be bound exactly once.
func bindCodelets(r *profileReader, p *Profile, ps []*ir.Program, cs []*ir.Codelet) error {
	type id struct{ app, name string }
	var index map[id]int
	bound := make([]bool, len(cs))
	for j := range p.Codelets {
		app, name := r.name(), r.name()
		if r.err != nil {
			return r.err
		}
		i := j
		if string(app) != ps[i].Name || string(name) != cs[i].Name {
			if index == nil {
				index = make(map[id]int, len(cs))
				for k := range cs {
					index[id{ps[k].Name, cs[k].Name}] = k
				}
			}
			var ok bool
			if i, ok = index[id{string(app), string(name)}]; !ok {
				return fmt.Errorf("pipeline: profile codelet %s/%s not in suite", app, name)
			}
		}
		if bound[i] {
			return fmt.Errorf("pipeline: profile lists codelet %s/%s twice", app, name)
		}
		bound[i] = true
		p.Progs[j], p.Codelets[j] = ps[i], cs[i]
	}
	return nil
}

// profileJSON is SaveJSON's rendering.
type profileJSON struct {
	Version   int         `json:"version"`
	Reference string      `json:"reference"`
	Targets   []string    `json:"targets"`
	Codelets  []string    `json:"codelets"`
	Apps      []string    `json:"apps"`
	RefInApp  []float64   `json:"refInApp"`
	RefSA     []float64   `json:"refStandalone"`
	Ill       []bool      `json:"illBehaved"`
	Discarded []bool      `json:"discarded"`
	Features  [][]float64 `json:"features"`
	TgtInApp  [][]float64 `json:"targetInApp"`
	TgtSA     [][]float64 `json:"targetStandalone"`
	// Failure markers from fault-escalated builds. omitempty keeps
	// clean profiles byte-identical to fault-unaware renderings (the
	// fields are nil unless a measurement actually failed).
	RefFailed []bool   `json:"refFailed,omitempty"`
	TgtFailed [][]bool `json:"targetFailed,omitempty"`
}

// SaveJSON renders the profile as indented JSON: the canonical,
// human-readable form that tests hash and compare (TestProfileGolden
// pins it). Nothing reads it back; profiles persist in the binary
// layout (AppendBinary, Save).
func (p *Profile) SaveJSON(w io.Writer) error {
	pj := profileJSON{
		Version:   1,
		Reference: p.Ref.Name,
		RefInApp:  p.RefInApp,
		RefSA:     p.RefStandalone,
		Ill:       p.IllBehaved,
		Discarded: p.Discarded,
		Features:  p.Features,
		TgtInApp:  p.TargetInApp,
		TgtSA:     p.TargetStandalone,
		RefFailed: p.RefFailed,
		TgtFailed: p.TargetFailed,
	}
	for _, m := range p.Targets {
		pj.Targets = append(pj.Targets, m.Name)
	}
	for i, c := range p.Codelets {
		pj.Codelets = append(pj.Codelets, c.Name)
		pj.Apps = append(pj.Apps, p.Progs[i].Name)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&pj)
}

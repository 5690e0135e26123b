// Package stage is the content-addressed artifact engine under the
// pipeline's DAG of steps (Detect → Profile → Normalize → Cluster →
// Represent → Predict). Each step resolves its output through a Store
// keyed by a Key: a SHA-256 digest over the step's encoded inputs, its
// name and version, and the Keys of its upstream artifacts. Equal keys
// mean equal inputs all the way up the graph, so a stored artifact can
// be reused — from an in-memory LRU or, for expensive roots like the
// profile, from an on-disk file — without recomputing anything that
// did not change. A parameter change (seed, feature mask, cluster
// count, target) therefore invalidates exactly its downstream stages:
// every upstream key is unchanged and keeps hitting the cache.
//
// Key derivation is pure: hashing must never consult the wall clock,
// randomness, or anything else outside the encoded inputs, or two runs
// with identical inputs would stop sharing artifacts. fgbsvet's
// determinism check enforces this package-wide — even an //fgbs:allow
// determinism suppression inside this package is itself a finding.
package stage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
)

// Key is the content address of one stage artifact: the hex SHA-256
// digest of the stage's identity and encoded inputs. Keys are plain
// comparable strings so they index maps and serialize trivially.
type Key string

// String returns the key's canonical hex form. It is the wire
// identity of an artifact: peer-fetch request paths embed it verbatim,
// and because it is a pure function of the content address, fgbsvet's
// keypurity check treats values derived from it as deterministic.
func (k Key) String() string { return string(k) }

// KeyBuilder accumulates a stage's identity and inputs into a digest.
// Every value is written with a type tag and, for variable-length
// values, a length prefix, so adjacent fields can never collide by
// concatenation ("ab"+"c" vs "a"+"bc").
//
// Builders come from an internal pool and return to it when Key
// finalizes the digest, so the whole derivation — header tags, value
// encodings, hash state — reuses one scratch buffer instead of
// allocating per field (key derivation runs on every stage resolution,
// thousands of times per sweep). A builder is dead after Key: the only
// supported shape is the one every call site uses, a single
// NewKey(...).X(...).Y(...).Key() chain.
type KeyBuilder struct {
	buf []byte
}

// builderPool recycles KeyBuilder scratch buffers. Typical derivations
// encode a few hundred bytes; the detect key (a structural walk of
// whole suites) runs to tens of kilobytes, and such a buffer is kept
// and reused too — there is exactly one detect derivation per resolve,
// so at most a handful of large buffers ever live in the pool.
var builderPool = sync.Pool{
	New: func() any { return &KeyBuilder{buf: make([]byte, 0, 512)} },
}

// NewKey starts a key for one stage. The stage name and version are
// the first inputs: bumping the version after a semantic change
// invalidates every stored artifact of that stage (and, through
// upstream-key chaining, everything downstream of it).
func NewKey(stage string, version int) *KeyBuilder {
	b := builderPool.Get().(*KeyBuilder)
	b.buf = b.buf[:0]
	return b.Str(stage).Int(version)
}

// header appends the 9-byte field header: type tag plus payload length.
func (b *KeyBuilder) header(t byte, n int) {
	var hdr [9]byte
	hdr[0] = t
	binary.BigEndian.PutUint64(hdr[1:], uint64(n))
	b.buf = append(b.buf, hdr[:]...)
}

// Str mixes in a string.
func (b *KeyBuilder) Str(s string) *KeyBuilder {
	b.header('s', len(s))
	b.buf = append(b.buf, s...)
	return b
}

// Strs mixes in a string slice, order-sensitively.
//
//fgbs:hot
func (b *KeyBuilder) Strs(ss []string) *KeyBuilder {
	b.Int(len(ss))
	for _, s := range ss {
		b.Str(s)
	}
	return b
}

// Int mixes in an int.
func (b *KeyBuilder) Int(v int) *KeyBuilder { return b.Uint64(uint64(int64(v))) }

// Uint64 mixes in a uint64.
func (b *KeyBuilder) Uint64(v uint64) *KeyBuilder {
	b.header('u', 8)
	b.buf = binary.BigEndian.AppendUint64(b.buf, v)
	return b
}

// Float mixes in a float64 by its exact bit pattern.
func (b *KeyBuilder) Float(v float64) *KeyBuilder {
	b.header('f', 8)
	b.buf = binary.BigEndian.AppendUint64(b.buf, math.Float64bits(v))
	return b
}

// Bool mixes in a bool.
func (b *KeyBuilder) Bool(v bool) *KeyBuilder {
	b.header('b', 1)
	if v {
		b.buf = append(b.buf, 1)
	} else {
		b.buf = append(b.buf, 0)
	}
	return b
}

// Append mixes in one variable-length value that fill encodes straight
// into the key's buffer: fill receives the buffer, appends to it, and
// returns the extended slice, never touching the bytes already there.
// The value gets a header like any other field, so it cannot run into
// its neighbors; telling apart two values fill writes is fill's job —
// its encoding must be injective. Structural walks use it to mix in
// whole trees without a 9-byte header per node.
func (b *KeyBuilder) Append(fill func(dst []byte) []byte) *KeyBuilder {
	start := len(b.buf)
	b.header('a', 0)
	b.buf = fill(b.buf)
	binary.BigEndian.PutUint64(b.buf[start+1:], uint64(len(b.buf)-start-9))
	return b
}

// Upstream mixes in another stage's key, chaining the DAG: any change
// upstream changes this key too.
func (b *KeyBuilder) Upstream(k Key) *KeyBuilder {
	b.header('k', len(k))
	b.buf = append(b.buf, k...)
	return b
}

// Key finalizes the digest and recycles the builder; the receiver must
// not be used again.
func (b *KeyBuilder) Key() Key {
	sum := sha256.Sum256(b.buf)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	k := Key(hx[:])
	builderPool.Put(b)
	return k
}

package stage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// Artifact integrity framing. Every artifact the store writes is
// prefixed with a one-line header carrying a schema version and a
// SHA-256 checksum of the payload:
//
//	fgbs-artifact v1 sha256:<64 hex> len:<decimal>\n
//	<payload bytes>
//
// On load the header is verified before the codec ever sees the
// payload, so a torn write, a flipped bit, or a frame from a future
// layout is detected as corruption — quarantined, recomputed — instead
// of being decoded into a half-plausible artifact. Frames are
// mandatory: bytes without the magic prefix make no integrity claim,
// so they are corrupt like any other failed check.

// frameMagic opens every framed artifact.
const frameMagic = "fgbs-artifact"

// frameVersion is the current frame layout. Frames from any other
// version are treated as corrupt (quarantined and recomputed) rather
// than guessed at.
const frameVersion = 1

// Frame returns payload prefixed with its integrity frame — the at-
// rest and on-the-wire form of every artifact. Harnesses use it to
// stage artifacts a peer endpoint would serve; every tier uses it on
// every put, and the jobs journal on every record.
func Frame(payload []byte) []byte {
	h := frameHeader(payload)
	out := make([]byte, 0, len(h)+len(payload))
	out = append(out, h...)
	return append(out, payload...)
}

// frameHeader builds the header line for payload.
func frameHeader(payload []byte) string {
	sum := sha256.Sum256(payload)
	return fmt.Sprintf("%s v%d sha256:%s len:%d\n", frameMagic, frameVersion, hex.EncodeToString(sum[:]), len(payload))
}

// Unframe validates data's frame and returns the payload — the one
// read check for every file Publish writes (artifacts and job records)
// and every artifact a peer serves. A frame is accepted only when its
// header line is byte for byte the one Frame writes for the payload
// that follows, so there is exactly one accepted spelling of every
// artifact. A non-nil error means the bytes fail verification: no
// frame at all, a truncated header, or a header that does not match
// the payload (another frame version, a length or checksum mismatch,
// a non-canonical spelling).
func Unframe(data []byte) ([]byte, error) {
	if !bytes.HasPrefix(data, []byte(frameMagic+" ")) {
		return nil, errors.New("stage: artifact has no integrity frame")
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, errors.New("stage: truncated frame header")
	}
	payload := data[nl+1:]
	if string(data[:nl+1]) != frameHeader(payload) {
		return nil, fmt.Errorf("stage: frame header does not match its %d-byte payload", len(payload))
	}
	return payload, nil
}

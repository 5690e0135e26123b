package stage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
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

// VerifyFrame checks one artifact's bytes against their integrity
// frame; a non-nil error means the bytes are missing the frame or fail
// verification. Harnesses (the crash-recovery e2e) use it to assert
// every surviving artifact verifies after a kill.
func VerifyFrame(data []byte) error {
	_, err := unframe(data)
	return err
}

// Frame returns payload prefixed with its integrity frame — the at-
// rest and on-the-wire form of every artifact. Harnesses use it to
// stage artifacts a peer endpoint would serve; the Framed decorator
// uses it on every Put.
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

// unframe validates data's frame and returns the payload. A non-nil
// error means the bytes fail verification: no frame at all, truncated
// header, unsupported version, length or checksum mismatch.
func unframe(data []byte) (payload []byte, err error) {
	if !bytes.HasPrefix(data, []byte(frameMagic+" ")) {
		return nil, fmt.Errorf("stage: artifact has no integrity frame")
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("stage: truncated frame header")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 4 {
		return nil, fmt.Errorf("stage: malformed frame header %q", data[:nl])
	}
	ver, err := strconv.Atoi(strings.TrimPrefix(fields[1], "v"))
	if err != nil || !strings.HasPrefix(fields[1], "v") {
		return nil, fmt.Errorf("stage: malformed frame version %q", fields[1])
	}
	if ver != frameVersion {
		return nil, fmt.Errorf("stage: artifact has frame version %d, this build reads version %d", ver, frameVersion)
	}
	wantSum, ok := strings.CutPrefix(fields[2], "sha256:")
	if !ok {
		return nil, fmt.Errorf("stage: malformed frame digest %q", fields[2])
	}
	wantLen, err := strconv.Atoi(strings.TrimPrefix(fields[3], "len:"))
	if err != nil || !strings.HasPrefix(fields[3], "len:") {
		return nil, fmt.Errorf("stage: malformed frame length %q", fields[3])
	}
	payload = data[nl+1:]
	if len(payload) != wantLen {
		return nil, fmt.Errorf("stage: artifact payload is %d bytes, frame says %d (truncated write?)", len(payload), wantLen)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != wantSum {
		return nil, fmt.Errorf("stage: artifact checksum mismatch")
	}
	return payload, nil
}

package stage

import (
	"context"
	"errors"
	"fmt"
	"net/http"
)

// The byte plane under the Store: an ordered chain of Backend tiers
// holding encoded artifact bytes. The Store's value plane (decoded
// artifacts in the LRU, singleflight) sits above it; on a value miss
// the Store walks the chain top to bottom, decodes the first tier that
// has the bytes, and promotes them into every tier above the hit. A
// miss through the whole chain falls through to compute, and the
// computed artifact is written through every tier.
//
// Tiers deal in raw bytes only — framing, quarantine, and degradation
// are decorators (Framed, Breakered) wrapped around every tier, so a
// remote tier gets exactly the same integrity and breaker behavior as
// the local disk.

// Canonical tier names. NewTierChain resolves these; Outcome.Tier and
// the Stats.Tiers rows report them.
const (
	TierMemory = "memory"
	TierDisk   = "disk"
	TierPeer   = "peer"
)

// DefaultMemoryTierEntries bounds a memory tier built without an
// explicit capacity.
const DefaultMemoryTierEntries = 256

// ErrNotFound reports a clean miss: the tier is healthy, it just does
// not hold the artifact. Every other error from a tier means the
// operation failed and feeds its breaker.
var ErrNotFound = errors.New("stage: artifact not found")

// CorruptError reports bytes that failed integrity verification. The
// Framed decorator returns it after quarantining the artifact; the
// breaker does not treat it as an I/O failure (the device delivered
// bytes fine — the bytes themselves were bad).
type CorruptError struct {
	Tier string
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("stage: corrupt artifact in %s tier: %v", e.Tier, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Ref names one artifact for the byte tiers. Key is the content
// address; Name is the codec-chosen filename local tiers store under.
type Ref struct {
	Key  Key
	Name string
}

// TierStats is one tier's health and traffic row, surfaced under
// /metricz stages.tiers. Base backends report State and Entries; the
// decorators contribute the counters (Framed: hits/misses/writes/
// quarantined, Breakered: errors and the degraded state).
type TierStats struct {
	// State is TierOK or TierDegraded (the breaker decorator's view).
	State string `json:"state"`
	// Entries is the tier's current artifact count, where knowable.
	Entries int `json:"entries"`
	// Hits are Gets that returned verified payload bytes.
	Hits int64 `json:"hits"`
	// Misses are Gets that found nothing (including breaker skips).
	Misses int64 `json:"misses"`
	// Writes are Puts that actually stored bytes.
	Writes int64 `json:"writes"`
	// Errors counts I/O failures (cumulative), from the breaker.
	Errors int64 `json:"errors"`
	// Quarantined counts artifacts that failed integrity or decode
	// checks and were moved aside (cumulative).
	Quarantined int64 `json:"quarantined"`
}

// Backend is one artifact tier. Implementations store and serve opaque
// byte slices; whether those bytes carry an integrity frame is the
// Framed decorator's business, not the tier's.
//
// Contracts: Get returns ErrNotFound for a clean miss and must not
// return bytes the caller may mutate in place; callers in turn must
// treat returned slices as read-only. Put reports whether bytes were
// actually stored (a read-only tier or a breaker skip returns false,
// nil) and must copy data if it retains it beyond the call. All
// methods may be called concurrently.
type Backend interface {
	// Name identifies the tier ("memory", "disk", "peer") in stats,
	// health reports, and Outcome.Tier.
	Name() string
	Get(ctx context.Context, ref Ref) ([]byte, error)
	Put(ctx context.Context, ref Ref, data []byte) (bool, error)
	Delete(ctx context.Context, ref Ref) error
	// Len is the tier's current artifact count, where knowable (a
	// remote tier reports 0).
	Len() int
	Stats() TierStats
}

// quarantiner is implemented by tiers that can move a corrupt artifact
// out of the load path (the disk tier renames to *.corrupt; the memory
// tier drops the entry). The Framed decorator counts the quarantine
// and forwards it down the stack.
type quarantiner interface {
	Quarantine(ctx context.Context, ref Ref)
}

// quarantineTier moves ref aside in tier, when the tier knows how.
func quarantineTier(ctx context.Context, tier Backend, ref Ref) {
	if q, ok := tier.(quarantiner); ok {
		q.Quarantine(ctx, ref)
	}
}

// framedGetter is implemented by the Framed decorator: GetFramed
// returns the verified artifact with its frame still attached, which
// is the wire format the peer-fetch endpoint serves.
type framedGetter interface {
	GetFramed(ctx context.Context, ref Ref) ([]byte, error)
}

// remoteTier marks tiers that are themselves served by a peer's
// artifact endpoint. FetchFramed skips them so two daemons pointed at
// each other can never bounce a fetch back and forth.
type remoteTier interface {
	Remote() bool
}

// isRemote reports whether tier (through any decorators) is remote.
func isRemote(tier Backend) bool {
	r, ok := tier.(remoteTier)
	return ok && r.Remote()
}

// TierConfig carries the resources tier names resolve against when
// assembling a chain.
type TierConfig struct {
	// Dir is the disk tier's directory.
	Dir string
	// Peers are base URLs of peer fgbsd daemons for the peer tier.
	Peers []string
	// MemoryEntries bounds the memory tier (DefaultMemoryTierEntries
	// when <= 0).
	MemoryEntries int
	// Client overrides the peer tier's HTTP client (nil uses
	// http.DefaultClient).
	Client *http.Client
}

// NewTierChain assembles an ordered backend chain from tier names,
// wrapping every tier in the standard decorators
// (Framed(Breakered(tier))) so integrity verification and breaker
// degradation apply uniformly. Valid names are TierMemory, TierDisk,
// and TierPeer; each may appear at most once and must have its
// resources configured.
func NewTierChain(names []string, cfg TierConfig) ([]Backend, error) {
	seen := make(map[string]bool, len(names))
	tiers := make([]Backend, 0, len(names))
	for _, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("stage: duplicate tier %q in chain", name)
		}
		seen[name] = true
		var base Backend
		switch name {
		case TierMemory:
			n := cfg.MemoryEntries
			if n <= 0 {
				n = DefaultMemoryTierEntries
			}
			base = NewMemoryBackend(n)
		case TierDisk:
			if cfg.Dir == "" {
				return nil, fmt.Errorf("stage: tier %q requires a stage directory", TierDisk)
			}
			base = NewDiskBackend(cfg.Dir)
		case TierPeer:
			if len(cfg.Peers) == 0 {
				return nil, fmt.Errorf("stage: tier %q requires at least one peer URL", TierPeer)
			}
			base = NewHTTPBackend(cfg.Peers, cfg.Client)
		default:
			return nil, fmt.Errorf("stage: unknown tier %q (valid: %s, %s, %s)", name, TierMemory, TierDisk, TierPeer)
		}
		tiers = append(tiers, Framed(Breakered(base)))
	}
	return tiers, nil
}

// DefaultTierNames is the chain implied by plain directory/peer
// configuration when no explicit tier list is given: disk when a
// directory is set, then peer when peers are set.
func DefaultTierNames(dir string, peers []string) []string {
	var names []string
	if dir != "" {
		names = append(names, TierDisk)
	}
	if len(peers) > 0 {
		names = append(names, TierPeer)
	}
	return names
}

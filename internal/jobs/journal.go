package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"fgbs/internal/fault"
	"fgbs/internal/stage"
)

// The jobs journal: one <Dir>/<id>.json record per job, wrapped in the
// artifact integrity frame (stage.Frame) and rewritten through the
// artifact store's one durable write path (stage.Publish) at every
// state transition of every job — submit (pending), each run start
// (running, attempts bumped), and the terminal states. A crash
// therefore leaves every job's last durable state on disk, and
// NewManager's recovery scan turns that state back into live jobs:
// terminal records are re-adopted for polling, pending/running records
// are re-enqueued through the Rehydrate hook (the pipeline is
// deterministic, so re-running an interrupted job reproduces the
// result byte for byte), and records a GC already dropped are
// tombstoned so they stay dead. The scan also resumes the job-%08d
// counter past the largest persisted ID — including tombstones and
// unreadable records — so a restarted manager can never hand out an ID
// that already names a file. A record that fails its frame (a flipped
// byte, a torn write, an unframed record from an older build) is
// logged and skipped in place, never replayed; it is not renamed
// aside, because only its job-*.json name reserves its ID.

// jobSchemaVersion is the journal record layout version. Records from
// other versions (including the version-less result files earlier
// releases wrote) are skipped on recovery with a log line naming the
// file — mirroring the profile cache's version gate — never guessed
// at.
const jobSchemaVersion = 1

// persistedJob is the on-disk form of one job record. Result and Spec
// stay raw JSON in both directions so a re-adopted result replays the
// exact bytes the original run produced.
type persistedJob struct {
	SchemaVersion int    `json:"schemaVersion"`
	ID            string `json:"id"`
	Kind          string `json:"kind,omitempty"`
	State         State  `json:"state,omitempty"`
	// Attempts counts run starts across process lifetimes.
	Attempts int `json:"attempts,omitempty"`
	// Interrupted marks a job that lost at least one process to a
	// crash or restart mid-flight.
	Interrupted bool `json:"interrupted,omitempty"`
	// Tombstone marks a GC'd job: the ID stays reserved, the job stays
	// dead across restarts.
	Tombstone bool            `json:"tombstone,omitempty"`
	Created   time.Time       `json:"created"`
	Started   time.Time       `json:"started"`
	Finished  time.Time       `json:"finished"`
	Err       string          `json:"error,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// journal rewrites j's record from its current state. Failures are
// deliberately swallowed: the in-memory job still serves pollers, and
// the disk layer degrades rather than failing submits (the stage
// store's disk breaker is the pattern; here a lost record only costs
// resumability).
func (m *Manager) journal(j *Job) {
	if m.cfg.Dir == "" {
		return
	}
	j.mu.Lock()
	pj := persistedJob{
		SchemaVersion: jobSchemaVersion,
		ID:            j.id,
		Kind:          j.kind,
		State:         j.state,
		Attempts:      j.attempts,
		Interrupted:   j.interrupted,
		Created:       j.created,
		Started:       j.started,
		Finished:      j.finished,
		Spec:          j.spec,
	}
	if j.err != nil {
		pj.Err = j.err.Error()
	}
	result := j.result
	j.mu.Unlock()
	if pj.State == StateDone && result != nil {
		data, err := json.Marshal(result)
		if err != nil {
			return
		}
		pj.Result = data
	}
	m.writeRecord(pj)
	// The record is durable; a crash from here on loses nothing but
	// progress, which recovery recomputes.
	fault.Crashpoint(fault.CrashAfterJournalWrite)
}

// tombstone replaces a dropped job's record so the ID stays dead (and
// reserved) across restarts. Callers hold m.mu; the write itself needs
// no manager state beyond the directory.
func (m *Manager) tombstone(id string) {
	m.writeRecord(persistedJob{SchemaVersion: jobSchemaVersion, ID: id, Tombstone: true})
}

// writeRecord durably writes one framed journal record, so a crash at
// any instant leaves either the old record or the new one, never a
// torn file. A failed write is dropped, as journal explains. It fires
// no artifact crashpoints: those sites belong to the stage store.
func (m *Manager) writeRecord(pj persistedJob) {
	data, err := json.Marshal(pj)
	if err != nil {
		return
	}
	stage.Publish(m.cfg.Dir, pj.ID+".json", stage.Frame(data), "", "")
}

// discardRecord removes a job's record outright — only for jobs that
// were never acknowledged to a caller (a submit the full queue
// rejected), where a tombstone would reserve an ID nobody ever saw.
func (m *Manager) discardRecord(id string) {
	if m.cfg.Dir == "" {
		return
	}
	os.Remove(filepath.Join(m.cfg.Dir, id+".json"))
}

// parseJobID extracts the numeric counter from a journal filename
// ("job-00000042.json" → 42). ok is false for files that are not job
// records (tmp files, foreign names).
func parseJobID(name string) (uint64, bool) {
	s, found := strings.CutPrefix(name, "job-")
	if !found {
		return 0, false
	}
	s, found = strings.CutSuffix(s, ".json")
	if !found {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recover scans the journal directory and rebuilds the manager's state
// from it. It runs from NewManager before the workers start, so no
// job can race the scan, and it removes the tmp files a crash in the
// middle of a record write left behind. Every parsable filename
// advances the ID counter — even records too corrupt to decode —
// because ID reuse against a surviving file is how restarts used to
// silently cross-wire old results onto new jobs. A record is adopted only when its frame
// verifies, its JSON decodes at this build's schema version, and it
// names the job its filename does.
func (m *Manager) recover() {
	if m.cfg.Dir == "" {
		return
	}
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return // nothing persisted yet
	}
	var resume []*Job
	m.mu.Lock()
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(m.cfg.Dir, e.Name())
		if rec, _, ok := strings.Cut(e.Name(), ".tmp"); ok {
			// stage.Publish's tmp file, left by a crash mid-write:
			// the record it was replacing (if any) is intact, and no
			// worker can be writing here yet.
			if _, ok := parseJobID(rec); ok {
				if err := os.Remove(path); err != nil {
					m.cfg.Logf("jobs: %s: cannot remove torn job-record write (%v)", path, err)
				} else {
					m.cfg.Logf("jobs: %s: removed torn job-record write", path)
				}
			}
			continue
		}
		n, ok := parseJobID(e.Name())
		if !ok {
			continue
		}
		if n > m.seq {
			m.seq = n
		}
		data, err := os.ReadFile(path)
		if err != nil {
			m.cfg.Logf("jobs: %s: unreadable job record (%v) — delete or regenerate it", path, err)
			continue
		}
		var pj persistedJob
		payload, err := stage.Unframe(data)
		if err == nil {
			err = json.Unmarshal(payload, &pj)
		}
		if err != nil {
			m.cfg.Logf("jobs: %s: corrupt job record (%v) — delete or regenerate it", path, err)
			continue
		}
		if pj.SchemaVersion != jobSchemaVersion {
			m.cfg.Logf("jobs: %s has journal version %d, this build reads version %d — delete or regenerate it", path, pj.SchemaVersion, jobSchemaVersion)
			continue
		}
		if pj.ID+".json" != e.Name() {
			m.cfg.Logf("jobs: %s: job record names job %q — delete or regenerate it", path, pj.ID)
			continue
		}
		if pj.Tombstone {
			continue // dead stays dead; the ID stays reserved
		}
		j := m.adopt(pj)
		if j != nil && !j.state.Terminal() {
			resume = append(resume, j)
		}
	}
	m.mu.Unlock()
	// Re-enqueue outside the lock: enqueueing is non-blocking, but the
	// journal rewrites below take j.mu and the disk.
	for _, j := range resume {
		m.resumed.Add(1)
		m.journal(j) // record the interrupted marker and any failure rewrite below
		select {
		case m.queue <- j:
			m.queued.Add(1)
		default:
			m.finalizeUnqueued(j, ErrQueueFull)
		}
	}
}

// adopt turns one journal record into a live job. Terminal records
// come back exactly as persisted (results as raw bytes, replayed
// verbatim). Pending/running records — jobs a crash interrupted — are
// rebuilt through the Rehydrate hook and marked interrupted; without a
// hook (or when it refuses the record) the job is adopted as failed,
// loudly, instead of being silently dropped. Callers hold m.mu.
func (m *Manager) adopt(pj persistedJob) *Job {
	j := &Job{
		id:       pj.ID,
		kind:     pj.Kind,
		spec:     pj.Spec,
		state:    pj.State,
		attempts: pj.Attempts,
		created:  pj.Created,
		started:  pj.Started,
		finished: pj.Finished,
		done:     make(chan struct{}),
	}
	//fgbs:allow guardedby recovery runs before the workers start; no other goroutine can see the job yet
	m.jobs[j.id] = j
	switch {
	case pj.State.Terminal():
		if pj.Err != "" {
			j.err = fmt.Errorf("%s", pj.Err)
		}
		if pj.State == StateDone && pj.Result != nil {
			j.result = pj.Result
		}
		j.interrupted = pj.Interrupted
		close(j.done)
		return j
	default:
		// The previous process died with this job pending or running.
		j.interrupted = true
		j.state = StatePending
		if m.cfg.Rehydrate == nil || len(pj.Spec) == 0 {
			m.finalizeUnqueued(j, ErrNotResumable)
			return j
		}
		fn, err := m.cfg.Rehydrate(pj.Kind, pj.Spec)
		if err != nil {
			m.finalizeUnqueued(j, fmt.Errorf("%w: %v", ErrNotResumable, err))
			return j
		}
		j.fn = fn
		return j
	}
}

// finalizeUnqueued fails a job that never made it (back) onto the
// queue.
func (m *Manager) finalizeUnqueued(j *Job, err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.err = err
	j.finished = m.cfg.now()
	j.mu.Unlock()
	m.failed.Add(1)
	m.journal(j)
	close(j.done)
}

package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fgbs/internal/stage"
)

// echoRehydrate rebuilds a job that returns its own spec, so resumed
// results are trivially checkable against the persisted parameters.
func echoRehydrate(kind string, spec json.RawMessage) (Fn, error) {
	return func(ctx context.Context, pr *Progress) (any, error) {
		var v map[string]int
		if err := json.Unmarshal(spec, &v); err != nil {
			return nil, err
		}
		return v, nil
	}, nil
}

// TestRecoveryResumesIDCounter is the regression test for the latent
// ID collision: a restarted manager over a populated jobs dir must hand
// out IDs past every persisted record, never reusing one.
func TestRecoveryResumesIDCounter(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(Config{Workers: 1, Dir: dir})
	var lastID string
	for i := 0; i < 3; i++ {
		j, err := m1.Submit("fill", nil, func(ctx context.Context, pr *Progress) (any, error) {
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		lastID = j.ID()
	}
	m1.Close()

	m2 := NewManager(Config{Workers: 1, Dir: dir})
	defer m2.Close()
	j, err := m2.Submit("fresh", nil, func(ctx context.Context, pr *Progress) (any, error) {
		return "new", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() <= lastID {
		t.Errorf("restarted manager issued %s, not past persisted %s", j.ID(), lastID)
	}
	if j.ID() != "job-00000004" {
		t.Errorf("ID after 3 persisted jobs = %s, want job-00000004", j.ID())
	}
}

// TestRecoveryAdoptsTerminal pins that a done job survives a restart
// with its exact result bytes — raw JSON in, raw JSON out, no
// re-marshal that could reorder keys.
func TestRecoveryAdoptsTerminal(t *testing.T) {
	dir := t.TempDir()
	spec := json.RawMessage(`{"answer":42}`)
	m1 := NewManager(Config{Workers: 1, Dir: dir})
	j, err := m1.Submit("echo", spec, func(ctx context.Context, pr *Progress) (any, error) {
		return map[string]int{"answer": 42}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	want, _ := j.Result()
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2 := NewManager(Config{Workers: 1, Dir: dir})
	defer m2.Close()
	j2, err := m2.Get(j.ID())
	if err != nil {
		t.Fatalf("re-adopted job not found: %v", err)
	}
	s := j2.Snapshot()
	if s.State != StateDone || s.Kind != "echo" {
		t.Fatalf("re-adopted state = %s/%s, want done/echo", s.State, s.Kind)
	}
	res, ok := j2.Result()
	if !ok {
		t.Fatal("re-adopted done job has no result")
	}
	raw, isRaw := res.(json.RawMessage)
	if !isRaw {
		t.Fatalf("re-adopted result type = %T, want json.RawMessage", res)
	}
	if !bytes.Equal(raw, wantBytes) {
		t.Errorf("re-adopted result = %s, want %s", raw, wantBytes)
	}
}

// TestRecoveryResumesInterrupted pins the core durability contract: a
// job that was pending or running when the process died is rebuilt via
// Rehydrate, re-enqueued, marked interrupted, and runs to done.
func TestRecoveryResumesInterrupted(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crash mid-run by writing the journal record a live
	// manager would have left behind: running, one attempt spent.
	rec := persistedJob{
		SchemaVersion: jobSchemaVersion,
		ID:            "job-00000001",
		Kind:          "echo",
		State:         StateRunning,
		Attempts:      1,
		Spec:          json.RawMessage(`{"answer":7}`),
	}
	writeRecordFile(t, dir, rec)

	m := NewManager(Config{Workers: 1, Dir: dir, Rehydrate: echoRehydrate})
	defer m.Close()
	if got := m.Stats().Resumed; got != 1 {
		t.Errorf("Stats().Resumed = %d, want 1", got)
	}
	j, err := m.Get("job-00000001")
	if err != nil {
		t.Fatalf("interrupted job not adopted: %v", err)
	}
	s := wait(t, j)
	if s.State != StateDone {
		t.Fatalf("resumed job state = %s (err %s), want done", s.State, s.Err)
	}
	if !s.Interrupted {
		t.Error("resumed job not marked interrupted")
	}
	if s.Attempts < 2 {
		t.Errorf("resumed job attempts = %d, want ≥2 (the lost run counts)", s.Attempts)
	}
	res, _ := j.Result()
	if v := res.(map[string]int)["answer"]; v != 7 {
		t.Errorf("resumed result = %v, want the spec's 7", res)
	}
	// The terminal record must reflect the completed re-run.
	pj := readRecordFile(t, dir, "job-00000001")
	if pj.State != StateDone || !pj.Interrupted {
		t.Errorf("journal after resume = %s/interrupted=%v, want done/true", pj.State, pj.Interrupted)
	}
}

// TestRecoveryWithoutRehydrate pins that interrupted jobs are adopted
// as failed — loudly pollable — when no hook can rebuild them.
func TestRecoveryWithoutRehydrate(t *testing.T) {
	dir := t.TempDir()
	writeRecordFile(t, dir, persistedJob{
		SchemaVersion: jobSchemaVersion,
		ID:            "job-00000001",
		Kind:          "echo",
		State:         StatePending,
		Spec:          json.RawMessage(`{"answer":1}`),
	})
	m := NewManager(Config{Workers: 1, Dir: dir})
	defer m.Close()
	j, err := m.Get("job-00000001")
	if err != nil {
		t.Fatal(err)
	}
	s := wait(t, j)
	if s.State != StateFailed || !strings.Contains(s.Err, ErrNotResumable.Error()) {
		t.Errorf("adoption without Rehydrate = %s (%q), want failed/ErrNotResumable", s.State, s.Err)
	}
}

// TestRecoveryTombstone pins that a GC'd job stays dead across
// restarts and its ID stays reserved.
func TestRecoveryTombstone(t *testing.T) {
	dir := t.TempDir()
	writeRecordFile(t, dir, persistedJob{
		SchemaVersion: jobSchemaVersion,
		ID:            "job-00000005",
		Tombstone:     true,
	})
	m := NewManager(Config{Workers: 1, Dir: dir})
	defer m.Close()
	if _, err := m.Get("job-00000005"); !errors.Is(err, ErrNotFound) {
		t.Errorf("tombstoned job resurrected: err = %v", err)
	}
	j, err := m.Submit("fresh", nil, func(ctx context.Context, pr *Progress) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-00000006" {
		t.Errorf("ID after tombstone 5 = %s, want job-00000006 (tombstones reserve IDs)", j.ID())
	}
}

// TestRecoverySkipsBadRecords covers the schema-version gate, a torn
// write, a done record whose result lost its integrity, an unframed
// record, and a record naming another job than its file: each is
// skipped with a log line naming the file and saying "delete or
// regenerate", never replayed, and each still advances the ID counter
// so a fresh submit cannot collide with the surviving file.
func TestRecoverySkipsBadRecords(t *testing.T) {
	dir := t.TempDir()
	// A record from a future (or past) schema version.
	writeRecordFile(t, dir, persistedJob{
		SchemaVersion: jobSchemaVersion + 1,
		ID:            "job-00000003",
		Kind:          "echo",
		State:         StateDone,
	})
	// A torn write: truncated JSON.
	if err := os.WriteFile(filepath.Join(dir, "job-00000009.json"), []byte(`{"schemaVersion":1,"id":"job-0000`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A done record written by the journal itself, then damaged on disk
	// so that it still parses: one digit of its result changed.
	done := persistedJob{
		SchemaVersion: jobSchemaVersion,
		ID:            "job-00000004",
		Kind:          "echo",
		State:         StateDone,
		Result:        json.RawMessage(`{"answer":42}`),
	}
	(&Manager{cfg: Config{Dir: dir}}).writeRecord(done)
	flipped := filepath.Join(dir, "job-00000004.json")
	data, err := os.ReadFile(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"answer":42`)) {
		t.Fatalf("journal record does not hold its result: %q", data)
	}
	if err := os.WriteFile(flipped, bytes.Replace(data, []byte(`"answer":42`), []byte(`"answer":43`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	// A well-formed record without the integrity frame, as builds
	// before the framed journal wrote it.
	done.ID = "job-00000006"
	unframed, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-00000006.json"), unframed, 0o644); err != nil {
		t.Fatal(err)
	}
	// A valid record filed under another job's name: adopting it would
	// hand its ID to a later submit.
	done.ID = "job-00000002"
	misfiled, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-00000008.json"), stage.Frame(misfiled), 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	m := NewManager(Config{
		Workers: 1, Dir: dir,
		Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	defer m.Close()

	for _, id := range []string{"job-00000002", "job-00000003", "job-00000004", "job-00000006", "job-00000008", "job-00000009"} {
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("bad record %s was adopted: err = %v", id, err)
		}
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "job-00000003.json") || !strings.Contains(joined, fmt.Sprintf("journal version %d, this build reads version %d", jobSchemaVersion+1, jobSchemaVersion)) {
		t.Errorf("version mismatch not logged with file name: %q", joined)
	}
	for _, name := range []string{"job-00000004.json", "job-00000006.json", "job-00000009.json"} {
		if !strings.Contains(joined, name+": corrupt job record") {
			t.Errorf("corrupt record %s not logged with its file name: %q", name, joined)
		}
	}
	if !strings.Contains(joined, `job-00000008.json: job record names job "job-00000002"`) {
		t.Errorf("misfiled record not logged with its file name: %q", joined)
	}
	if !strings.Contains(joined, "delete or regenerate") {
		t.Errorf("logs missing the remediation hint: %q", joined)
	}
	// Even unreadable records reserve their IDs.
	j, err := m.Submit("fresh", nil, func(ctx context.Context, pr *Progress) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-00000010" {
		t.Errorf("ID after skipped records 3, 4, 6, 8 and 9 = %s, want job-00000010", j.ID())
	}
}

// TestRecoveryRemovesTornTmp: a crash in the middle of a record write
// leaves stage.Publish's tmp file beside the records. Recovery removes
// and logs it, adopts the intact record, and does not let the tmp
// file's name reserve an ID.
func TestRecoveryRemovesTornTmp(t *testing.T) {
	dir := t.TempDir()
	(&Manager{cfg: Config{Dir: dir}}).writeRecord(persistedJob{
		SchemaVersion: jobSchemaVersion,
		ID:            "job-00000002",
		Kind:          "echo",
		State:         StateDone,
		Result:        json.RawMessage(`{"answer":42}`),
	})
	torn := filepath.Join(dir, "job-00000003.json.tmp42")
	if err := os.WriteFile(torn, []byte("fgbs-artifact v1 sha256:"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	m := NewManager(Config{
		Workers: 1, Dir: dir,
		Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	defer m.Close()

	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("torn tmp file survived recovery: stat err = %v", err)
	}
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "job-00000003.json.tmp42: removed torn job-record write") {
		t.Errorf("removal not logged with the file name: %q", joined)
	}
	if j, err := m.Get("job-00000002"); err != nil || j.Snapshot().State != StateDone {
		t.Errorf("intact record not adopted: err = %v", err)
	}
	j, err := m.Submit("fresh", nil, func(ctx context.Context, pr *Progress) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-00000003" {
		t.Errorf("ID after record 2 and a torn tmp of 3 = %s, want job-00000003", j.ID())
	}
}

// TestCancelDurableStaysCanceled pins the cancel-vs-crash distinction:
// an explicit Cancel is journaled, so the job stays canceled after a
// restart instead of resuming. The canceled record is durable before
// Done() wakes a waiter: one reading the journal the moment it wakes
// finds the terminal record, not the pending one.
func TestCancelDurableStaysCanceled(t *testing.T) {
	dir := t.TempDir()
	// No workers would be simpler, but Workers is clamped ≥1; submit
	// through a stalled queue instead: occupy the single worker, then
	// cancel the queued job while it is still pending.
	block := make(chan struct{})
	started := make(chan struct{})
	m1 := NewManager(Config{Workers: 1, Dir: dir, Rehydrate: echoRehydrate})
	blocker, err := m1.Submit("block", nil, func(ctx context.Context, pr *Progress) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j, err := m1.Submit("echo", json.RawMessage(`{"answer":3}`), func(ctx context.Context, pr *Progress) (any, error) {
		return map[string]int{"answer": 3}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	woken := make(chan string, 1)
	go func() {
		<-j.Done()
		pj, err := loadRecord(dir, j.ID())
		if err != nil {
			woken <- err.Error()
			return
		}
		woken <- string(pj.State)
	}()
	if _, err := m1.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	if got := <-woken; got != string(StateCanceled) {
		t.Errorf("record read right after Done() = %s, want canceled", got)
	}
	close(block)
	wait(t, blocker)
	wait(t, j)
	m1.Close()

	m2 := NewManager(Config{Workers: 1, Dir: dir, Rehydrate: echoRehydrate})
	defer m2.Close()
	if got := m2.Stats().Resumed; got != 0 {
		t.Errorf("canceled job resumed: Stats().Resumed = %d", got)
	}
	j2, err := m2.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if s := j2.Snapshot(); s.State != StateCanceled {
		t.Errorf("canceled durable job after restart = %s, want canceled", s.State)
	}
}

// TestGCTombstoneOutlivesTerminalRecord: a job that GC drops while its
// terminal record is still being written must stay dead after a
// restart. The clock jumps past the retention window at every reading,
// so a job is expired the moment it finishes, and GC runs continuously
// while it does. The large result widens the window between the job
// turning terminal and its record becoming durable; a tombstone written
// inside that window is overwritten by the record.
func TestGCTombstoneOutlivesTerminalRecord(t *testing.T) {
	dir := t.TempDir()
	var ticks atomic.Int64
	now := func() time.Time { return time.Unix(ticks.Add(1)*3600, 0) }
	m1 := NewManager(Config{Workers: 1, Dir: dir, Retention: time.Minute, now: now})
	release := make(chan struct{})
	j, err := m1.Submit("big", nil, func(ctx context.Context, pr *Progress) (any, error) {
		<-release
		return make([]int, 1<<15), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				m1.List()
			}
		}
	}()
	close(release)
	wait(t, j)
	close(stop)
	<-stopped
	m1.List()
	if _, err := m1.Get(j.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job not collected: err = %v", err)
	}
	m1.Close()

	m2 := NewManager(Config{Workers: 1, Dir: dir})
	defer m2.Close()
	if _, err := m2.Get(j.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("collected job back after restart: err = %v", err)
	}
}

// writeRecordFile plants a framed journal record as a crashed process
// would have left it.
func writeRecordFile(t *testing.T, dir string, pj persistedJob) {
	t.Helper()
	data, err := json.Marshal(pj)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, pj.ID+".json"), stage.Frame(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readRecordFile verifies and decodes one journal record.
func readRecordFile(t *testing.T, dir, id string) persistedJob {
	t.Helper()
	pj, err := loadRecord(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	return pj
}

// loadRecord is readRecordFile for goroutines that may not call
// t.Fatal.
func loadRecord(dir, id string) (persistedJob, error) {
	var pj persistedJob
	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		return pj, err
	}
	payload, err := stage.Unframe(data)
	if err != nil {
		return pj, fmt.Errorf("journal record %s: %w", id, err)
	}
	err = json.Unmarshal(payload, &pj)
	return pj, err
}

// FuzzJournalRecord runs recovery over one framed record with a
// fuzzed JSON payload under a job-*.json name. Recovery must never
// panic, the ID counter must pass the filename's ID whatever the
// record says, a record is adopted only under its filename's ID, and
// an adopted non-terminal record either rehydrates (and runs to done)
// or fails loudly with ErrNotResumable. The seeds are the records the
// journal tests above build.
func FuzzJournalRecord(f *testing.F) {
	for _, pj := range []persistedJob{
		{SchemaVersion: jobSchemaVersion, ID: "job-00000001", Kind: "echo", State: StateRunning, Attempts: 1, Spec: json.RawMessage(`{"answer":7}`)},
		{SchemaVersion: jobSchemaVersion, ID: "job-00000001", Kind: "echo", State: StatePending, Spec: json.RawMessage(`{"answer":1}`)},
		{SchemaVersion: jobSchemaVersion, ID: "job-00000004", Kind: "echo", State: StateDone, Result: json.RawMessage(`{"answer":42}`)},
		{SchemaVersion: jobSchemaVersion, ID: "job-00000005", Tombstone: true},
		{SchemaVersion: jobSchemaVersion + 1, ID: "job-00000003", Kind: "echo", State: StateDone},
	} {
		data, err := json.Marshal(pj)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// The same record under the fuzzed file's own name, so the
		// seeds reach adoption and not only the ID check.
		f.Add(bytes.Replace(data, []byte(pj.ID), []byte("job-00000007"), 1))
	}
	f.Add([]byte(`{"schemaVersion":1,"id":"job-0000`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		const id = "job-00000007"
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, id+".json"), stage.Frame(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		m := NewManager(Config{
			Workers: 1, Dir: dir,
			Rehydrate: func(kind string, spec json.RawMessage) (Fn, error) {
				if kind != "echo" {
					return nil, fmt.Errorf("unknown kind %q", kind)
				}
				return func(ctx context.Context, pr *Progress) (any, error) { return "resumed", nil }, nil
			},
			Logf: func(string, ...any) {},
		})
		defer m.Close()
		m.mu.Lock()
		for other := range m.jobs {
			if other != id {
				t.Errorf("record in %s.json adopted as %s", id, other)
			}
		}
		m.mu.Unlock()
		if j, err := m.Get(id); err == nil {
			var pj persistedJob
			if err := json.Unmarshal(payload, &pj); err != nil || pj.ID != id {
				t.Fatalf("adopted record %q (decode err %v)", payload, err)
			}
			s := wait(t, j)
			switch {
			case pj.State.Terminal():
				if s.State != pj.State {
					t.Errorf("terminal record %s re-adopted as %s", pj.State, s.State)
				}
			case s.State == StateDone:
				if !s.Interrupted {
					t.Errorf("resumed job not marked interrupted: %+v", s)
				}
			case s.State != StateFailed || !strings.Contains(s.Err, ErrNotResumable.Error()):
				t.Errorf("interrupted record ended %s (%q), want done or failed with ErrNotResumable", s.State, s.Err)
			}
		}
		fresh, err := m.Submit("fresh", nil, func(ctx context.Context, pr *Progress) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		if fresh.ID() <= id {
			t.Errorf("fresh ID %s does not pass the record's file %s", fresh.ID(), id)
		}
	})
}

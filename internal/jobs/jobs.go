// Package jobs is the asynchronous experiment-job engine: it turns
// the pipeline's minute-scale computations (the Figure 3 sweep, the
// Figure 7 random baseline, the §4.2 GA) into submit/poll/cancel jobs
// executed on a bounded worker pool, so the serving layer never blocks
// a request on a long experiment.
//
// A Manager owns a fixed pool of workers draining a bounded queue.
// Each job gets a stable ID, a state machine
// (pending → running → done|failed|canceled), a context derived from
// the manager's lifetime for cancellation, and live progress counters
// ("trials 412/1000") the job function updates as it runs. Terminal
// jobs are retained for polling and garbage-collected after a
// retention window (or beyond a retained-count cap).
//
// With a journal directory configured the manager is crash-safe: every
// job is journaled durably at every state transition, and a restarted
// manager re-adopts the journal — terminal jobs come back pollable with
// their exact result bytes, interrupted pending/running jobs are
// rebuilt from their spec through the Rehydrate hook and re-enqueued
// (the pipeline is deterministic, so the re-run reproduces the lost
// result), GC'd jobs stay dead behind tombstones, and the ID counter
// resumes past every persisted record so restarts never reuse an ID.
// See journal.go.
//
// A failed job stays failed: there are no job-level retries. Transient
// measurement faults are retried below the job, by the measurement
// layer (measure.Robust), and a failed profile build by the serving
// registry's breaker probe.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle phase.
type State string

const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Progress is a job's live work counter. The job function calls Set
// and SetTotal as it advances; pollers read a consistent snapshot at
// any time. All methods are safe for concurrent use.
type Progress struct {
	done  atomic.Int64
	total atomic.Int64
}

// SetTotal publishes the total number of work units.
func (p *Progress) SetTotal(n int64) { p.total.Store(n) }

// Set publishes the cumulative number of completed work units.
func (p *Progress) Set(n int64) { p.done.Store(n) }

// Add increments the completed-unit counter.
func (p *Progress) Add(n int64) { p.done.Add(n) }

// Snapshot returns (done, total).
func (p *Progress) Snapshot() (done, total int64) {
	return p.done.Load(), p.total.Load()
}

// Fn is the work a job performs. It must honor ctx — returning
// ctx.Err() promptly once canceled — and may update pr throughout.
// The returned value becomes the job's result; it must be
// JSON-marshalable if disk persistence is enabled.
type Fn func(ctx context.Context, pr *Progress) (any, error)

// Job is one submitted experiment. All exported state is read through
// Snapshot (or Result); the struct itself is owned by the manager.
type Job struct {
	id   string
	kind string
	fn   Fn
	// spec is the durable form of the job's parameters, from which
	// recovery rebuilds an interrupted job (see Submit).
	spec json.RawMessage

	// Progress is updated lock-free by the running fn.
	progress Progress

	mu          sync.Mutex
	state       State              // guarded by mu
	result      any                // guarded by mu
	err         error              // guarded by mu
	attempts    int                // guarded by mu
	interrupted bool               // guarded by mu; lost a process to a crash/restart
	created     time.Time          // guarded by mu
	started     time.Time          // guarded by mu
	finished    time.Time          // guarded by mu
	cancel      context.CancelFunc // guarded by mu
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

// ID returns the job's stable identifier.
func (j *Job) ID() string { return j.id }

// Kind returns the job's submitted kind label.
func (j *Job) Kind() string { return j.kind }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot is a consistent copy of a job's observable state.
type Snapshot struct {
	ID       string
	Kind     string
	State    State
	Done     int64
	Total    int64
	Created  time.Time
	Started  time.Time
	Finished time.Time
	Err      string
	// Attempts counts how many times the job has started running,
	// across process lifetimes: more than 1 only for a job a crash or
	// restart interrupted mid-run and recovery resumed.
	Attempts int
	// Interrupted marks a job that lost at least one process to a
	// crash or restart mid-flight and was re-adopted from the journal.
	Interrupted bool
}

// Snapshot captures the job's current observable state.
func (j *Job) Snapshot() Snapshot {
	done, total := j.progress.Snapshot()
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID: j.id, Kind: j.kind, State: j.state,
		Done: done, Total: total,
		Created: j.created, Started: j.started, Finished: j.finished,
		Attempts: j.attempts, Interrupted: j.interrupted,
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	return s
}

// Result returns the job's result value once done. ok is false while
// the job is not in StateDone (pollers should retry or give up based
// on the snapshot's state). A job re-adopted from the journal after a
// restart returns its result as json.RawMessage — the exact bytes the
// original run persisted.
func (j *Job) Result() (any, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// maxRetained caps the terminal jobs kept in memory; beyond it GC
// drops the oldest first.
const maxRetained = 128

// Config tunes a Manager. The zero value gets GOMAXPROCS workers, a
// 64-deep queue, 15-minute retention of up to maxRetained terminal
// jobs, and no journal.
type Config struct {
	// Workers is the pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds pending jobs; Submit fails when full (default 64).
	QueueDepth int
	// Retention is how long terminal jobs stay queryable (default 15m).
	Retention time.Duration
	// Dir, when set, is the job journal: every job is persisted as
	// <Dir>/<id>.json on submit, on each run start and on its terminal
	// state, and recovered on the next NewManager over the same
	// directory. GC replaces a dropped job's record with a tombstone so
	// the ID stays dead (and reserved) across restarts.
	Dir string
	// Rehydrate rebuilds a journaled job's work function from its
	// persisted kind and spec when recovery re-adopts a job that was
	// pending or running at crash time. nil means such jobs are
	// re-adopted as failed (ErrNotResumable) instead of re-enqueued.
	Rehydrate func(kind string, spec json.RawMessage) (Fn, error)
	// Logf receives recovery diagnostics (skipped records, version
	// mismatches). nil logs to standard error.
	Logf func(format string, args ...any)
	// now is a test hook; nil means time.Now.
	now func() time.Time
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Retention <= 0 {
		c.Retention = 15 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if c.now == nil {
		c.now = time.Now //fgbs:allow determinism the injection point itself: tests swap this hook for a fake clock
	}
}

// Errors returned by Submit/Cancel/lookup and recovery.
var (
	ErrClosed    = errors.New("jobs: manager closed")
	ErrQueueFull = errors.New("jobs: queue full")
	ErrNotFound  = errors.New("jobs: no such job")
	// ErrNotResumable finalizes a journaled job that a crash
	// interrupted but recovery could not re-enqueue (no Rehydrate hook,
	// no spec, or the hook refused the record).
	ErrNotResumable = errors.New("jobs: interrupted by restart and not resumable")
)

// Stats are the /metricz gauges: queued and running are instantaneous,
// completed/failed/canceled are cumulative since the manager started
// (GC never decrements them).
type Stats struct {
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// Resumed counts interrupted jobs recovery re-enqueued from the
	// journal at startup.
	Resumed int64 `json:"resumed"`
}

// Manager executes jobs on a bounded worker pool. Create with
// NewManager, release with Close.
type Manager struct {
	cfg   Config
	ctx   context.Context
	stop  context.CancelFunc
	queue chan *Job
	wg    sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*Job // guarded by mu
	seq  uint64          // guarded by mu

	queued    atomic.Int64
	running   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	resumed   atomic.Int64
}

// NewManager recovers any persisted journal under cfg.Dir — terminal
// jobs re-adopted, interrupted jobs re-enqueued, the ID counter
// resumed past every persisted record — and then starts the worker
// pool.
func NewManager(cfg Config) *Manager {
	cfg.fill()
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:   cfg,
		ctx:   ctx,
		stop:  stop,
		queue: make(chan *Job, cfg.QueueDepth),
		jobs:  make(map[string]*Job),
	}
	m.recover()
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Close cancels every pending and running job and waits for the
// workers to drain. Job functions observe cancellation through their
// contexts.
func (m *Manager) Close() {
	m.stop()
	m.wg.Wait()
	// Workers are gone; finalize whatever never ran so waiters on
	// Done() are released.
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.state.Terminal() {
			j.state = StateCanceled
			j.err = ErrClosed
			j.finished = m.cfg.now()
			m.canceled.Add(1)
			close(j.done)
		}
		j.mu.Unlock()
	}
}

// Submit enqueues fn under the given kind label and returns the job,
// already in StatePending. It fails fast when the queue is full or the
// manager is closed. With a journal (Config.Dir) the record is written
// before the job can run and rewritten at every state transition;
// should the process die with the job pending or running, the next
// NewManager over the same directory turns (kind, spec) back into a
// runnable Fn through the Rehydrate hook. A job with an empty spec is
// journaled all the same, but recovery fails it with ErrNotResumable.
func (m *Manager) Submit(kind string, spec json.RawMessage, fn Fn) (*Job, error) {
	if m.ctx.Err() != nil {
		return nil, ErrClosed
	}
	m.mu.Lock()
	m.seq++
	j := &Job{
		id:      fmt.Sprintf("job-%08d", m.seq),
		kind:    kind,
		fn:      fn,
		spec:    spec,
		state:   StatePending,
		created: m.cfg.now(),
		done:    make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.gcLocked()
	m.mu.Unlock()

	// The record must be durable before the job can run: once
	// enqueued, a worker may start (and the process may die) at any
	// instant, and an unjournaled running job is unrecoverable.
	m.journal(j)
	select {
	case m.queue <- j:
		m.queued.Add(1)
		return j, nil
	default:
		m.mu.Lock()
		delete(m.jobs, j.id)
		m.mu.Unlock()
		// Never acknowledged to the caller, so no tombstone: the ID
		// was never observable.
		m.discardRecord(j.id)
		return nil, ErrQueueFull
	}
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// List snapshots every known job, newest first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	m.gcLocked()
	js := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]Snapshot, 0, len(js))
	for _, j := range js {
		out = append(out, j.Snapshot())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// Cancel requests cancellation: a pending job is finalized
// immediately, a running job's context is canceled (the job turns
// canceled when its fn returns), and a terminal job is left untouched.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	switch j.state {
	case StatePending:
		j.state = StateCanceled
		j.err = context.Canceled
		j.finished = m.cfg.now()
		m.canceled.Add(1)
		j.mu.Unlock()
		// An explicit cancel is a user decision, journaled so the job
		// stays canceled across restarts (unlike a crash, which leaves
		// the pending record and resumes). As in run, the record is
		// durable before Done() wakes a waiter.
		m.journal(j)
		close(j.done)
	case StateRunning:
		j.cancel()
		j.mu.Unlock()
	default:
		j.mu.Unlock()
	}
	return j, nil
}

// Stats returns the gauge snapshot.
func (m *Manager) Stats() Stats {
	return Stats{
		Queued:    m.queued.Load(),
		Running:   m.running.Load(),
		Completed: m.completed.Load(),
		Failed:    m.failed.Load(),
		Canceled:  m.canceled.Load(),
		Resumed:   m.resumed.Load(),
	}
}

// Saturation reports the instantaneous queue fill against its
// capacity, for health reporting: a full queue means Submit is
// rejecting work.
func (m *Manager) Saturation() (queued int64, depth int) {
	return m.queued.Load(), m.cfg.QueueDepth
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.queued.Add(-1)
			m.run(j)
		}
	}
}

// run executes one job to a terminal state.
func (m *Manager) run(j *Job) {
	j.mu.Lock()
	if j.state != StatePending { // canceled while queued
		j.mu.Unlock()
		return
	}
	// A draining worker can win the race against its own shutdown and
	// pull one more job off the queue after Close; don't start it.
	if m.ctx.Err() != nil {
		j.state = StateCanceled
		j.err = ErrClosed
		j.finished = m.cfg.now()
		m.canceled.Add(1)
		close(j.done)
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.ctx)
	j.cancel = cancel
	j.state = StateRunning
	j.started = m.cfg.now()
	j.attempts++
	j.mu.Unlock()
	defer cancel()
	// The running record (attempts bumped) must hit disk before work
	// starts: a crash mid-run then recovers a job whose attempt count
	// reflects the lost run.
	m.journal(j)

	m.running.Add(1)
	res, err := j.fn(ctx, &j.progress)
	m.running.Add(-1)

	j.mu.Lock()
	j.finished = m.cfg.now()
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || ctx.Err() != nil):
		j.state = StateCanceled
		j.err = context.Canceled
		m.canceled.Add(1)
	case err != nil:
		j.state = StateFailed
		j.err = err
		m.failed.Add(1)
	default:
		j.state = StateDone
		j.result = res
		m.completed.Add(1)
	}
	j.mu.Unlock()
	// Journal before releasing waiters: a poller woken by Done() must
	// find the terminal record already durable on disk.
	m.journal(j)
	close(j.done)
}

// gcLocked drops terminal jobs past the retention window, then the
// oldest beyond maxRetained. Callers hold m.mu.
func (m *Manager) gcLocked() {
	cutoff := m.cfg.now().Add(-m.cfg.Retention)
	var terminal []*Job
	//fgbs:allow guardedby the *Locked naming contract: every caller holds m.mu
	for _, j := range m.jobs {
		// Collectable once Done() is closed, when the terminal record is
		// durable: a tombstone written earlier would be overwritten by it.
		select {
		case <-j.done:
		default:
			continue
		}
		j.mu.Lock()
		fin := j.finished
		j.mu.Unlock()
		if fin.Before(cutoff) {
			m.dropLocked(j)
			continue
		}
		terminal = append(terminal, j)
	}
	if len(terminal) > maxRetained {
		sort.Slice(terminal, func(a, b int) bool { return terminal[a].id < terminal[b].id })
		for _, j := range terminal[:len(terminal)-maxRetained] {
			m.dropLocked(j)
		}
	}
}

// dropLocked removes a job from the map and tombstones its journal
// record: the ID stays reserved and the job stays dead across
// restarts, instead of a deleted record resurrecting on recovery.
func (m *Manager) dropLocked(j *Job) {
	//fgbs:allow guardedby the *Locked naming contract: every caller holds m.mu
	delete(m.jobs, j.id)
	if m.cfg.Dir != "" {
		m.tombstone(j.id)
	}
}

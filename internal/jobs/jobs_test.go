package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// wait blocks until the job is terminal or the test deadline hits.
func wait(t *testing.T, j *Job) Snapshot {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s not terminal after 30s: %+v", j.ID(), j.Snapshot())
	}
	return j.Snapshot()
}

func TestLifecycleDone(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close()
	j, err := m.Submit("sum", nil, func(ctx context.Context, pr *Progress) (any, error) {
		pr.SetTotal(10)
		total := 0
		for i := 0; i < 10; i++ {
			total += i
			pr.Add(1)
		}
		return total, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() == "" || j.Kind() != "sum" {
		t.Errorf("job identity = %q/%q", j.ID(), j.Kind())
	}
	s := wait(t, j)
	if s.State != StateDone {
		t.Fatalf("state = %s, want done (err %s)", s.State, s.Err)
	}
	if s.Done != 10 || s.Total != 10 {
		t.Errorf("progress = %d/%d, want 10/10", s.Done, s.Total)
	}
	if s.Started.Before(s.Created) || s.Finished.Before(s.Started) {
		t.Errorf("timestamps disordered: %+v", s)
	}
	res, ok := j.Result()
	if !ok || res.(int) != 45 {
		t.Errorf("result = %v, %v", res, ok)
	}
}

func TestLifecycleFailed(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	boom := errors.New("boom")
	j, err := m.Submit("bad", nil, func(ctx context.Context, pr *Progress) (any, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	s := wait(t, j)
	if s.State != StateFailed || s.Err != "boom" {
		t.Errorf("state = %s err %q, want failed/boom", s.State, s.Err)
	}
	if _, ok := j.Result(); ok {
		t.Error("failed job exposed a result")
	}
	if st := m.Stats(); st.Failed != 1 {
		t.Errorf("failed gauge = %d, want 1", st.Failed)
	}
}

func TestCancelRunning(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	started := make(chan struct{})
	j, err := m.Submit("spin", nil, func(ctx context.Context, pr *Progress) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	s := wait(t, j)
	if s.State != StateCanceled {
		t.Errorf("state = %s, want canceled", s.State)
	}
	if st := m.Stats(); st.Canceled != 1 || st.Running != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCancelPending(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	if _, err := m.Submit("hog", nil, func(ctx context.Context, pr *Progress) (any, error) {
		close(started)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now occupied
	j, err := m.Submit("starved", nil, func(ctx context.Context, pr *Progress) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	s := wait(t, j)
	if s.State != StateCanceled {
		t.Errorf("pending cancel state = %s", s.State)
	}
	if !s.Started.IsZero() {
		t.Error("canceled-while-pending job claims to have started")
	}
	close(block)
}

func TestCancelUnknownAndTerminalIdempotent(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	if _, err := m.Cancel("job-nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown = %v, want ErrNotFound", err)
	}
	j, _ := m.Submit("ok", nil, func(ctx context.Context, pr *Progress) (any, error) { return 1, nil })
	wait(t, j)
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Errorf("cancel of done job errored: %v", err)
	}
	if s := j.Snapshot(); s.State != StateDone {
		t.Errorf("cancel flipped a done job to %s", s.State)
	}
}

func TestQueueFull(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	hog := func(ctx context.Context, pr *Progress) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := m.Submit("a", nil, hog); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; the queue slot is free again
	if _, err := m.Submit("b", nil, hog); err != nil {
		t.Fatal(err) // fills the single queue slot
	}
	if _, err := m.Submit("c", nil, hog); !errors.Is(err, ErrQueueFull) {
		t.Errorf("third submit = %v, want ErrQueueFull", err)
	}
	// The rejected job must not linger in listings.
	if got := len(m.List()); got != 2 {
		t.Errorf("listed jobs = %d, want 2", got)
	}
	close(release)
}

func TestListNewestFirstAndStableIDs(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close()
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := m.Submit("n", nil, func(ctx context.Context, pr *Progress) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		wait(t, j)
	}
	l := m.List()
	if len(l) != 3 {
		t.Fatalf("list = %d entries", len(l))
	}
	for i := 1; i < len(l); i++ {
		if l[i].ID >= l[i-1].ID {
			t.Errorf("list not newest-first: %s before %s", l[i-1].ID, l[i].ID)
		}
	}
	if jobs[0].ID() == jobs[1].ID() {
		t.Error("duplicate job IDs")
	}
	got, err := m.Get(jobs[2].ID())
	if err != nil || got != jobs[2] {
		t.Errorf("Get = %v, %v", got, err)
	}
}

func TestRetentionGC(t *testing.T) {
	clock := time.Unix(1000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	m := NewManager(Config{Workers: 1, Retention: time.Minute, now: now})
	defer m.Close()
	j, _ := m.Submit("old", nil, func(ctx context.Context, pr *Progress) (any, error) { return nil, nil })
	wait(t, j)
	clockMu.Lock()
	clock = clock.Add(2 * time.Minute)
	clockMu.Unlock()
	if got := len(m.List()); got != 0 {
		t.Errorf("expired job still listed (%d entries)", got)
	}
	if _, err := m.Get(j.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired job still gettable: %v", err)
	}
}

func TestMaxRetainedGC(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	var last *Job
	for i := 0; i < maxRetained+3; i++ {
		j, err := m.Submit("n", nil, func(ctx context.Context, pr *Progress) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		last = j
	}
	l := m.List()
	if len(l) > maxRetained+1 { // the cap + possibly the freshest pre-GC
		t.Errorf("retained %d terminal jobs, cap %d", len(l), maxRetained)
	}
	found := false
	for _, s := range l {
		found = found || s.ID == last.ID()
	}
	if !found {
		t.Error("newest job evicted before older ones")
	}
}

func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Workers: 1, Dir: dir})
	defer m.Close()
	j, err := m.Submit("persisted", nil, func(ctx context.Context, pr *Progress) (any, error) {
		return map[string]int{"answer": 42}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	pj := readRecordFile(t, dir, j.ID())
	if pj.ID != j.ID() || pj.Kind != "persisted" {
		t.Errorf("persisted identity = %q/%q", pj.ID, pj.Kind)
	}
	if pj.SchemaVersion != jobSchemaVersion {
		t.Errorf("persisted schema version = %d, want %d", pj.SchemaVersion, jobSchemaVersion)
	}
	var res map[string]float64
	if err := json.Unmarshal(pj.Result, &res); err != nil {
		t.Fatalf("persisted result does not decode: %v", err)
	}
	if res["answer"] != 42 {
		t.Errorf("persisted result = %s", pj.Result)
	}

	// A failed job without a spec is journaled like any other: its
	// record holds the terminal state and the error.
	f, _ := m.Submit("broken", nil, func(ctx context.Context, pr *Progress) (any, error) {
		return nil, errors.New("no")
	})
	wait(t, f)
	if pj := readRecordFile(t, dir, f.ID()); pj.State != StateFailed || pj.Err != "no" || pj.Result != nil {
		t.Errorf("failed job record = %s/%q/%s, want failed/\"no\"/no result", pj.State, pj.Err, pj.Result)
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan struct{})
	running, _ := m.Submit("run", nil, func(ctx context.Context, pr *Progress) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	queued, _ := m.Submit("queued", nil, func(ctx context.Context, pr *Progress) (any, error) {
		return nil, nil
	})
	m.Close()
	if s := running.Snapshot(); s.State != StateCanceled {
		t.Errorf("running job after Close = %s", s.State)
	}
	if s := queued.Snapshot(); s.State != StateCanceled {
		t.Errorf("queued job after Close = %s", s.State)
	}
	if _, err := m.Submit("late", nil, func(ctx context.Context, pr *Progress) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentSubmitPoll hammers the manager from many goroutines:
// the -race gate for the pool's bookkeeping.
func TestConcurrentSubmitPoll(t *testing.T) {
	m := NewManager(Config{Workers: 4, QueueDepth: 256})
	defer m.Close()
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := m.Submit(fmt.Sprintf("w%d", i), nil, func(ctx context.Context, pr *Progress) (any, error) {
				pr.SetTotal(100)
				for u := 0; u < 100; u++ {
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					pr.Add(1)
				}
				return i, nil
			})
			if err != nil {
				errs[i] = err
				return
			}
			m.List() // poll concurrently with execution
			j.Snapshot()
			select {
			case <-j.Done():
			case <-time.After(30 * time.Second):
				errs[i] = fmt.Errorf("job %s stuck", j.ID())
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if st := m.Stats(); st.Completed != n || st.Running != 0 || st.Queued != 0 {
		t.Errorf("stats = %+v, want %d completed, idle", st, n)
	}
}

func TestSaturation(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 7})
	defer m.Close()
	if q, d := m.Saturation(); q != 0 || d != 7 {
		t.Errorf("saturation = %d/%d, want 0/7", q, d)
	}
}

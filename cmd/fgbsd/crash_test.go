package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fgbs/internal/fault"
	"fgbs/internal/stage"
)

// TestCrashRecovery is the kill-mid-job e2e behind ci.sh's crash
// recovery gate: it builds the real fgbsd binary, kills it at each
// named crashpoint while a sweep job is in flight, restarts it against
// the same directories, and asserts the durability contract — the
// interrupted job re-runs to completion with results byte-identical to
// an uninterrupted run, every surviving artifact and job record
// verifies its integrity frame, a deliberately corrupted artifact is
// quarantined (kept as *.corrupt, never served), and /metricz reports
// the resumed and quarantined counters.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repeatedly restarts the daemon")
	}
	bin := buildDaemon(t)

	// Reference: an uninterrupted run of the same job on the same seed.
	ref := func() []byte {
		dir := t.TempDir()
		d := startDaemon(t, bin, dir, "")
		defer d.stop(t)
		id := d.submitSweep(t)
		d.pollDone(t, id)
		return d.result(t, id)
	}()
	if len(ref) == 0 {
		t.Fatal("reference run produced an empty result")
	}

	for _, site := range []string{
		fault.CrashAfterJournalWrite,
		fault.CrashMidArtifactWrite,
		fault.CrashBeforeRename,
	} {
		t.Run(strings.ReplaceAll(site, "/", "_"), func(t *testing.T) {
			dir := t.TempDir()
			armed := startDaemon(t, bin, dir, site)
			// The submit may fail mid-request when the crashpoint fires
			// inside the submit path itself (after-journal-write dies
			// before the 202 is written); the journal record is durable
			// either way, which is the contract under test.
			armed.trySubmitSweep()
			armed.waitCrash(t)

			clean := startDaemon(t, bin, dir, "")
			defer clean.stop(t)
			clean.pollDone(t, "job-00000001")
			if got := clean.result(t, "job-00000001"); !bytes.Equal(got, ref) {
				t.Errorf("resumed result differs from uninterrupted run:\n got %d bytes: %.120s\nwant %d bytes: %.120s", len(got), got, len(ref), ref)
			}
			if n := clean.metricInt(t, "jobs", "resumed"); n < 1 {
				t.Errorf("metricz jobs.resumed = %d, want >= 1", n)
			}
			verifyArtifacts(t, dir)
		})
	}

	t.Run("quarantine", func(t *testing.T) {
		dir := t.TempDir()
		d := startDaemon(t, bin, dir, "")
		id := d.submitSweep(t)
		d.pollDone(t, id)
		d.stop(t)

		// Corrupt the published profile artifact the way a torn write
		// would, and rewind the job's journal record to running — the
		// state a crash mid-job would have left — so the restart both
		// resumes the job and trips over the corruption.
		corruptOneArtifact(t, dir)
		rewindJobRecord(t, dir, id)

		clean := startDaemon(t, bin, dir, "")
		defer clean.stop(t)
		clean.pollDone(t, id)
		if got := clean.result(t, id); !bytes.Equal(got, ref) {
			t.Errorf("result after quarantine differs from uninterrupted run (%d vs %d bytes)", len(got), len(ref))
		}
		if n := clean.metricInt(t, "jobs", "resumed"); n < 1 {
			t.Errorf("metricz jobs.resumed = %d, want >= 1", n)
		}
		if n := clean.metricInt(t, "stages", "tiers", "disk", "quarantined"); n < 1 {
			t.Errorf("metricz stages.tiers.disk.quarantined = %d, want >= 1", n)
		}
		quarantined, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
		if err != nil || len(quarantined) == 0 {
			t.Errorf("no *.corrupt file kept in %s (err %v)", dir, err)
		}
		verifyArtifacts(t, dir)
	})
}

// buildDaemon compiles fgbsd once into the test's temp space.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fgbsd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building fgbsd: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running fgbsd under test.
type daemon struct {
	cmd  *exec.Cmd
	base string
	out  *lockedBuffer
	exit chan error
}

// lockedBuffer collects subprocess output across goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon launches fgbsd on an ephemeral port over dir, arming the
// given crashpoint site ("" for none), and waits until it serves.
// extra flags (say -peers for the peer-fetch e2e) are appended.
func startDaemon(t *testing.T, bin, dir, crashSite string, extra ...string) *daemon {
	t.Helper()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-suites", "syn-smoke",
		"-profiledir", dir,
		"-seed", "20140215",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	env := make([]string, 0, len(os.Environ())+1)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, fault.CrashEnv+"=") {
			env = append(env, kv)
		}
	}
	if crashSite != "" {
		env = append(env, fault.CrashEnv+"="+crashSite)
	}
	cmd.Env = env

	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	out := &lockedBuffer{}
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, out: out, exit: make(chan error, 1)}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.exit
	})

	// The serving line carries the kernel-chosen port.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(io.TeeReader(stdout, out))
		for sc.Scan() {
			line := sc.Text()
			if _, addr, ok := strings.Cut(line, " on "); ok && strings.HasPrefix(line, "fgbsd: serving") {
				select {
				case addrc <- strings.TrimSpace(addr):
				default:
				}
			}
		}
	}()
	go func() { d.exit <- cmd.Wait() }()

	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case err := <-d.exit:
		d.exit <- err
		t.Fatalf("fgbsd exited before serving: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("fgbsd did not start serving\n%s", out.String())
	}
	return d
}

// stop shuts the daemon down and waits for it to exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exit:
		d.exit <- nil // let the Cleanup's receive proceed
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("fgbsd did not shut down\n%s", d.out.String())
	}
}

// waitCrash waits for the armed crashpoint to kill the daemon and
// asserts the distinctive exit code.
func (d *daemon) waitCrash(t *testing.T) {
	t.Helper()
	select {
	case err := <-d.exit:
		d.exit <- err
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != fault.CrashExitCode {
			t.Fatalf("daemon exit = %v, want crashpoint code %d\n%s", err, fault.CrashExitCode, d.out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("armed daemon did not crash\n%s", d.out.String())
	}
}

const sweepBody = `{"kind":"sweep","suite":"syn-smoke","kmin":2,"kmax":4}`

// submitSweep submits the canonical test job and returns its ID.
func (d *daemon) submitSweep(t *testing.T) string {
	t.Helper()
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var jj struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &jj); err != nil || jj.ID == "" {
		t.Fatalf("submit response %q: %v", body, err)
	}
	return jj.ID
}

// trySubmitSweep submits without asserting success — for armed daemons
// that may die mid-request.
func (d *daemon) trySubmitSweep() {
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", strings.NewReader(sweepBody))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// pollDone polls the job until it reaches done, failing on any other
// terminal state.
func (d *daemon) pollDone(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("poll %s: %v\n%s", id, err, d.out.String())
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var jj struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &jj); err != nil {
			t.Fatalf("poll %s: %v in %q", id, err, body)
		}
		switch jj.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s reached %s: %s\n%s", id, jj.State, jj.Error, d.out.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("job %s not done before deadline\n%s", id, d.out.String())
}

// result fetches the completed job's result bytes.
func (d *daemon) result(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, body)
	}
	return body
}

// metricInt digs an integer out of /metricz by key path.
func (d *daemon) metricInt(t *testing.T, path ...string) int64 {
	t.Helper()
	resp, err := http.Get(d.base + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	var cur any = m
	for _, k := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			t.Fatalf("metricz path %v: %T at %q", path, cur, k)
		}
		cur = obj[k]
	}
	f, ok := cur.(float64)
	if !ok {
		t.Fatalf("metricz path %v = %T(%v), want number", path, cur, cur)
	}
	return int64(f)
}

// verifyArtifacts checks that every surviving stage artifact and every
// surviving job record passes its integrity frame.
func verifyArtifacts(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".art") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stage.Unframe(data); err != nil {
			t.Errorf("artifact %s fails verification: %v", e.Name(), err)
		}
		checked++
	}
	if checked == 0 {
		t.Errorf("no artifacts survived in %s", dir)
	}
	records, err := filepath.Glob(filepath.Join(dir, "jobs", "job-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Errorf("no job records survived in %s", filepath.Join(dir, "jobs"))
	}
	for _, path := range records {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stage.Unframe(data); err != nil {
			t.Errorf("job record %s fails verification: %v", filepath.Base(path), err)
		}
	}
}

// corruptOneArtifact truncates a published framed artifact in place.
func corruptOneArtifact(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".art") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stage.Unframe(data); err != nil {
			continue
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no framed artifact to corrupt")
}

// rewindJobRecord rewrites a done job's framed journal record to
// running — the state a crash mid-job leaves behind — so a restart
// resumes it.
func rewindJobRecord(t *testing.T, dir, id string) {
	t.Helper()
	path := filepath.Join(dir, "jobs", id+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := stage.Unframe(data)
	if err != nil {
		t.Fatalf("job record %s: %v", id, err)
	}
	var rec map[string]any
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	rec["state"] = "running"
	delete(rec, "result")
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stage.Frame(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

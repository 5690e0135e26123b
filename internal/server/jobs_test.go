package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fgbs/internal/features"
	"fgbs/internal/report"
)

// jobsTestServer is newTestServer with a small, deterministic job
// pool: two workers so one long job cannot starve the others.
func jobsTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny", "spare"},
		Programs:   testPrograms,
		JobWorkers: 2,
	})
	t.Cleanup(s.Close)
	seedSuite(t, s, "tiny", sharedProfile(t))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// submitJob posts a job request and returns the accepted job.
func submitJob(t *testing.T, ts *httptest.Server, body string) report.JobJSON {
	t.Helper()
	var jj report.JobJSON
	resp := post(t, ts, "/v1/jobs", body, &jj)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if jj.ID == "" {
		t.Fatal("submit returned no job ID")
	}
	return jj
}

// pollJob polls the job until pred is satisfied or the deadline hits.
func pollJob(t *testing.T, ts *httptest.Server, id string, what string, pred func(report.JobJSON) bool) report.JobJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jj report.JobJSON
		resp := get(t, ts, "/v1/jobs/"+id, &jj)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		if pred(jj) {
			return jj
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s: %+v", id, what, jj)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(jj report.JobJSON) bool {
	switch jj.State {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// TestJobsSweepLifecycle is the happy path: submit a sweep, watch it
// finish, fetch the Figure 3 result, see it in the listing and in the
// /metricz gauges.
func TestJobsSweepLifecycle(t *testing.T) {
	ts := jobsTestServer(t)
	jj := submitJob(t, ts, `{"kind":"sweep","suite":"tiny","kmin":2,"kmax":4}`)

	done := pollJob(t, ts, jj.ID, "terminal", terminal)
	if done.State != "done" {
		t.Fatalf("state = %s err %q, want done", done.State, done.Error)
	}
	if done.Done != 3 || done.Total != 3 {
		t.Errorf("final progress = %d/%d, want 3/3", done.Done, done.Total)
	}
	if done.Started == nil || done.Finished == nil {
		t.Error("terminal job missing started/finished timestamps")
	}

	var sweep report.SweepJSON
	resp := get(t, ts, "/v1/jobs/"+jj.ID+"/result", &sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	if sweep.Suite != "tiny" || sweep.KMin != 2 || sweep.KMax != 4 {
		t.Errorf("result identity = %q %d..%d", sweep.Suite, sweep.KMin, sweep.KMax)
	}
	prof := sharedProfile(t)
	if len(sweep.Targets) != len(prof.Targets) {
		t.Errorf("targets = %v", sweep.Targets)
	}
	if len(sweep.Points) != 3 {
		t.Fatalf("points = %d, want 3 (k=2..4 on %d codelets)", len(sweep.Points), prof.N())
	}
	for i, pt := range sweep.Points {
		if pt.K != 2+i || len(pt.MedianError) != len(prof.Targets) {
			t.Errorf("point %d = %+v", i, pt)
		}
	}

	// The parallel job's points must equal the serial pipeline's.
	want, err := prof.SweepK(features.DefaultMask(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if sweep.Points[i].FinalK != want[i].FinalK || sweep.Points[i].MedianError[0] != want[i].MedianError[0] {
			t.Errorf("point %d diverges from serial sweep: %+v vs %+v", i, sweep.Points[i], want[i])
		}
	}

	var list struct {
		Jobs []report.JobJSON `json:"jobs"`
	}
	get(t, ts, "/v1/jobs", &list)
	found := false
	for _, l := range list.Jobs {
		found = found || l.ID == jj.ID
	}
	if !found {
		t.Errorf("job %s missing from listing %+v", jj.ID, list.Jobs)
	}

	var m struct {
		Jobs struct {
			Completed int64 `json:"completed"`
		} `json:"jobs"`
	}
	get(t, ts, "/metricz", &m)
	if m.Jobs.Completed < 1 {
		t.Errorf("metricz jobs.completed = %d, want >= 1", m.Jobs.Completed)
	}
}

// TestJobsCancelRunning is the acceptance scenario's abort leg: a
// long randbaseline job is observed making progress mid-run, its
// result endpoint reports not-ready, and DELETE aborts it promptly.
func TestJobsCancelRunning(t *testing.T) {
	ts := jobsTestServer(t)
	// 2M serial trials: minutes of work, canceled after the first
	// progress report (a few hundred trials in).
	jj := submitJob(t, ts, `{"kind":"randbaseline","suite":"tiny","ks":[2],"trials":2000000,"parallelism":1}`)

	running := pollJob(t, ts, jj.ID, "running with progress", func(j report.JobJSON) bool {
		if terminal(j) {
			t.Fatalf("job finished before it could be canceled: %+v", j)
		}
		return j.State == "running" && j.Done > 0
	})
	if running.Total != 2000000 {
		t.Errorf("total = %d, want 2000000", running.Total)
	}

	// The result is not ready: 202 with the job snapshot.
	resp := get(t, ts, "/v1/jobs/"+jj.ID+"/result", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("mid-run result status = %d, want 202", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jj.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}

	canceled := pollJob(t, ts, jj.ID, "terminal", terminal)
	if canceled.State != "canceled" {
		t.Errorf("state after cancel = %s, want canceled", canceled.State)
	}
	if canceled.Done >= canceled.Total {
		t.Errorf("canceled job claims full progress %d/%d", canceled.Done, canceled.Total)
	}

	// Canceled jobs have no result.
	resp = get(t, ts, "/v1/jobs/"+jj.ID+"/result", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("canceled result status = %d, want 409", resp.StatusCode)
	}

	var m struct {
		Jobs struct {
			Canceled int64 `json:"canceled"`
			Running  int64 `json:"running"`
		} `json:"jobs"`
	}
	get(t, ts, "/metricz", &m)
	if m.Jobs.Canceled < 1 {
		t.Errorf("metricz jobs.canceled = %d, want >= 1", m.Jobs.Canceled)
	}
}

// TestJobsGA runs a miniature §4.2 feature selection asynchronously.
func TestJobsGA(t *testing.T) {
	ts := jobsTestServer(t)
	jj := submitJob(t, ts, `{"kind":"ga","suite":"tiny","population":12,"generations":3,"seed":7}`)
	done := pollJob(t, ts, jj.ID, "terminal", terminal)
	if done.State != "done" {
		t.Fatalf("state = %s err %q, want done", done.State, done.Error)
	}
	if done.Done != 3 || done.Total != 3 {
		t.Errorf("progress = %d/%d, want 3/3 generations", done.Done, done.Total)
	}
	var res report.GAJSON
	resp := get(t, ts, "/v1/jobs/"+jj.ID+"/result", &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	if res.Suite != "tiny" || res.Seed != 7 || res.BestMask == "" {
		t.Errorf("result identity = %+v", res)
	}
	if len(res.History) != 3 || res.Evaluations != 12*3 {
		t.Errorf("history %d evaluations %d, want 3 and 36", len(res.History), res.Evaluations)
	}
	if len(res.Targets) != len(sharedProfile(t).Targets) {
		t.Errorf("defaulted targets = %v", res.Targets)
	}
}

// TestJobsFailure: a target name only a built profile can validate
// surfaces as a failed job with the error preserved, and the result
// endpoint answers 409.
func TestJobsFailure(t *testing.T) {
	ts := jobsTestServer(t)
	jj := submitJob(t, ts, `{"kind":"randbaseline","suite":"tiny","ks":[2],"trials":2,"target":"PDP-11"}`)
	done := pollJob(t, ts, jj.ID, "terminal", terminal)
	if done.State != "failed" {
		t.Fatalf("state = %s, want failed", done.State)
	}
	if done.Error == "" {
		t.Error("failed job carries no error message")
	}
	resp := get(t, ts, "/v1/jobs/"+jj.ID+"/result", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("failed result status = %d, want 409", resp.StatusCode)
	}
}

func TestJobsBadRequests(t *testing.T) {
	ts := jobsTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"no kind", `{"suite":"tiny"}`},
		{"unknown kind", `{"kind":"fold","suite":"tiny"}`},
		{"unknown suite", `{"kind":"sweep","suite":"spec"}`},
		{"bad json", `{`},
		{"unknown field", `{"kind":"sweep","suite":"tiny","bogus":1}`},
		{"kmin above kmax", `{"kind":"sweep","suite":"tiny","kmin":5,"kmax":3}`},
		{"kmin below 2", `{"kind":"sweep","suite":"tiny","kmin":1,"kmax":3}`},
		{"negative trials", `{"kind":"randbaseline","suite":"tiny","trials":-1}`},
		{"tiny ks entry", `{"kind":"randbaseline","suite":"tiny","ks":[1]}`},
		{"bad mutation prob", `{"kind":"ga","suite":"tiny","mutationProb":1.5}`},
		{"negative parallelism", `{"kind":"sweep","suite":"tiny","parallelism":-2}`},
		{"bad features", `{"kind":"sweep","suite":"tiny","features":"nope"}`},
		{"trailing garbage", `{"kind":"sweep","suite":"tiny"} not json at all`},
		{"second object", `{"kind":"sweep","suite":"tiny"}{"kind":"ga","bogus":1}`},
		{"over limit", oversizedBody(`{"kind":"sweep","suite":"tiny"}`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e errorJSON
			resp := post(t, ts, "/v1/jobs", c.body, &e)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
			if e.Error == "" {
				t.Error("error body missing")
			}
		})
	}

	// Unknown job IDs: 404 on get, result, and cancel.
	for _, path := range []string{"/v1/jobs/job-nope", "/v1/jobs/job-nope/result"} {
		if resp := get(t, ts, path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-nope", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown = %d, want 404", resp.StatusCode)
	}

	// Submitting against an unbuilt suite is accepted — the job itself
	// builds the profile. "spare" builds fine, so the job completes.
	jj := submitJob(t, ts, `{"kind":"sweep","suite":"spare","kmin":2,"kmax":3}`)
	if done := pollJob(t, ts, jj.ID, "terminal", terminal); done.State != "done" {
		t.Errorf("unbuilt-suite job = %s err %q", done.State, done.Error)
	}
}

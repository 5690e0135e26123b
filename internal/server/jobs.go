package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"

	"fgbs/internal/features"
	"fgbs/internal/ga"
	"fgbs/internal/jobs"
	"fgbs/internal/pipeline"
	"fgbs/internal/report"
)

// Async experiment jobs: the expensive computations (the Figure 3
// sweep, the Figure 7 random baseline, the §4.2 GA) run minutes, far
// past what a synchronous request should hold open. POST /v1/jobs
// validates the request, submits a closure onto the jobs.Manager pool
// and returns 202 with the job's ID; clients poll GET /v1/jobs/{id}
// for state and progress, fetch GET /v1/jobs/{id}/result once done,
// and DELETE /v1/jobs/{id} to cancel. The closure resolves the
// suite's profile through the same coalescing registry the
// synchronous endpoints use — under the job's context, not the
// submit request's, so the experiment survives the submitter
// disconnecting.

// jobRequest is the body of POST /v1/jobs. Kind selects which
// parameter group applies; zero values mean defaults.
type jobRequest struct {
	Kind     string `json:"kind"`
	Suite    string `json:"suite"`
	Features string `json:"features"`

	// sweep: cluster counts kmin..kmax (defaults 2..24).
	KMin int `json:"kmin"`
	KMax int `json:"kmax"`

	// randbaseline: random trials per K (defaults: ks
	// [4 8 12 16 20 24], 1000 trials, first target).
	Ks     []int  `json:"ks"`
	Trials int    `json:"trials"`
	Target string `json:"target"`

	// ga: evolution parameters (defaults 120/40/0.01, all targets).
	Population   int      `json:"population"`
	Generations  int      `json:"generations"`
	MutationProb float64  `json:"mutationProb"`
	Targets      []string `json:"targets"`

	// Seed defaults to the server's seed; Parallelism bounds the
	// experiment's worker fan-out (0 = GOMAXPROCS).
	Seed        *uint64 `json:"seed"`
	Parallelism int     `json:"parallelism"`
}

// fillDefaults fills the request's zero values in place, before
// validation so defaulted fields never trip it.
func (req *jobRequest) fillDefaults(serverSeed uint64) {
	if req.KMin == 0 {
		req.KMin = 2
	}
	if req.KMax == 0 {
		req.KMax = 24
	}
	if len(req.Ks) == 0 {
		req.Ks = []int{4, 8, 12, 16, 20, 24}
	}
	if req.Trials == 0 {
		req.Trials = 1000
	}
	if req.Population == 0 {
		req.Population = 120
	}
	if req.Generations == 0 {
		req.Generations = 40
	}
	//fgbs:allow floatcompare exact-zero means "field omitted from the request JSON"
	if req.MutationProb == 0 {
		req.MutationProb = 0.01
	}
	if req.Seed == nil {
		req.Seed = &serverSeed
	}
	if req.Parallelism == 0 {
		req.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// validate rejects what can be rejected before profiles exist. Target
// names are only checkable against a built profile, so they are
// validated inside the job and surface as a failed job.
func (req *jobRequest) validate(s *Server) error {
	switch req.Kind {
	case "sweep", "randbaseline", "ga":
	case "":
		return fmt.Errorf("kind is required (sweep, randbaseline, or ga)")
	default:
		return fmt.Errorf("unknown kind %q (valid: sweep, randbaseline, ga)", req.Kind)
	}
	if !s.validSuite(req.Suite) {
		return fmt.Errorf("unknown suite %q (valid: %s)", req.Suite, strings.Join(s.suiteSet, ", "))
	}
	if req.KMin < 2 || req.KMax < req.KMin {
		return fmt.Errorf("need 2 <= kmin <= kmax, got %d..%d", req.KMin, req.KMax)
	}
	for _, k := range req.Ks {
		if k < 2 {
			return fmt.Errorf("ks entries must be >= 2, got %d", k)
		}
	}
	if req.Trials < 1 {
		return fmt.Errorf("trials must be >= 1, got %d", req.Trials)
	}
	if req.Population < 2 {
		return fmt.Errorf("population must be >= 2, got %d", req.Population)
	}
	if req.Generations < 1 {
		return fmt.Errorf("generations must be >= 1, got %d", req.Generations)
	}
	if req.MutationProb < 0 || req.MutationProb > 1 {
		return fmt.Errorf("mutationProb must be in [0,1], got %g", req.MutationProb)
	}
	if req.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0, got %d", req.Parallelism)
	}
	return nil
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	req.fillDefaults(s.cfg.Seed)
	if err := req.validate(s); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fn, err := s.buildJobFn(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The filled request — defaults resolved, seed pinned — is the
	// job's durable spec: what the journal persists and what a
	// restarted daemon rehydrates, so a later change of server defaults
	// can never alter a resumed job's parameters.
	spec, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding job spec: %v", err)
		return
	}
	j, err := s.jobs.Submit(req.Kind, spec, fn)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "job queue full, retry later")
		return
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, report.NewJobJSON(j.Snapshot()))
}

// buildJobFn turns a validated, default-filled request into its work
// function — shared by fresh submits and journal rehydration so a
// resumed job runs exactly the code a fresh one would.
func (s *Server) buildJobFn(req jobRequest) (jobs.Fn, error) {
	mask, err := parseFeatureMask(req.Features)
	if err != nil {
		return nil, err
	}
	switch req.Kind {
	case "sweep":
		return s.sweepJob(req, mask), nil
	case "randbaseline":
		return s.randBaselineJob(req, mask), nil
	case "ga":
		return s.gaJob(req), nil
	default:
		return nil, fmt.Errorf("unknown kind %q (valid: sweep, randbaseline, ga)", req.Kind)
	}
}

// rehydrateJob is the jobs.Manager's Rehydrate hook: it rebuilds the
// work function for a journaled job that was pending or running when
// the previous process died. The spec is the filled request the submit
// handler persisted; it is re-validated so a record from a
// configuration that no longer accepts it (a removed suite, say) fails
// the job loudly instead of running unchecked.
func (s *Server) rehydrateJob(kind string, spec json.RawMessage) (jobs.Fn, error) {
	var req jobRequest
	if err := json.Unmarshal(spec, &req); err != nil {
		return nil, fmt.Errorf("decoding persisted spec: %w", err)
	}
	if req.Kind != kind {
		return nil, fmt.Errorf("spec kind %q does not match record kind %q", req.Kind, kind)
	}
	if err := req.validate(s); err != nil {
		return nil, err
	}
	return s.buildJobFn(req)
}

func (s *Server) sweepJob(req jobRequest, mask features.Mask) jobs.Fn {
	return func(ctx context.Context, pr *jobs.Progress) (any, error) {
		st, _, err := s.registry.Staged(ctx, req.Suite)
		if err != nil {
			return nil, err
		}
		prof := st.Profile()
		pr.SetTotal(int64(req.KMax - req.KMin + 1))
		pts, err := st.SweepK(ctx, mask, req.KMin, req.KMax, req.Parallelism, func(done, total int) {
			pr.Set(int64(done))
		})
		if err != nil {
			return nil, err
		}
		sj := report.NewSweepJSON(prof, pts)
		sj.Suite = req.Suite
		sj.Mask = mask.String()
		sj.KMin, sj.KMax = req.KMin, req.KMax
		return sj, nil
	}
}

func (s *Server) randBaselineJob(req jobRequest, mask features.Mask) jobs.Fn {
	return func(ctx context.Context, pr *jobs.Progress) (any, error) {
		st, _, err := s.registry.Staged(ctx, req.Suite)
		if err != nil {
			return nil, err
		}
		prof := st.Profile()
		target := req.Target
		if target == "" {
			target = prof.Targets[0].Name
		}
		t, err := prof.TargetIndex(target)
		if err != nil {
			return nil, err
		}
		pr.SetTotal(int64(len(req.Ks) * req.Trials))
		var all []pipeline.RandomClusteringStats
		for i, k := range req.Ks {
			base := int64(i * req.Trials)
			rcs, err := st.RandomClusterings(ctx, mask, k, req.Trials, t, *req.Seed, req.Parallelism, func(done, total int) {
				pr.Set(base + int64(done))
			})
			if err != nil {
				return nil, err
			}
			all = append(all, rcs)
		}
		rj := report.NewRandBaselineJSON(all)
		rj.Suite, rj.Mask, rj.Target = req.Suite, mask.String(), target
		rj.Trials, rj.Seed = req.Trials, *req.Seed
		return rj, nil
	}
}

func (s *Server) gaJob(req jobRequest) jobs.Fn {
	return func(ctx context.Context, pr *jobs.Progress) (any, error) {
		st, _, err := s.registry.Staged(ctx, req.Suite)
		if err != nil {
			return nil, err
		}
		prof := st.Profile()
		targets := req.Targets
		if len(targets) == 0 {
			for _, m := range prof.Targets {
				targets = append(targets, m.Name)
			}
		}
		fitness, err := prof.FeatureFitness(targets...)
		if err != nil {
			return nil, err
		}
		pr.SetTotal(int64(req.Generations))
		res, err := ga.Run(ctx, fitness, ga.Options{
			Population:   req.Population,
			Generations:  req.Generations,
			MutationProb: req.MutationProb,
			Seed:         *req.Seed,
			Workers:      req.Parallelism,
			OnGeneration: func(gen int, best float64, mask features.Mask) {
				pr.Set(int64(gen + 1))
			},
		})
		if err != nil {
			return nil, err
		}
		return &report.GAJSON{
			Suite: req.Suite, Targets: targets,
			Population: req.Population, Generations: req.Generations,
			Seed:     *req.Seed,
			BestMask: res.Best.String(), BestFeatures: res.Best.Names(),
			BestFitness: res.BestFitness, Evaluations: res.Evaluations,
			History: res.History,
		}, nil
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	snaps := s.jobs.List()
	out := struct {
		Jobs []*report.JobJSON `json:"jobs"`
	}{Jobs: make([]*report.JobJSON, 0, len(snaps))}
	for _, sn := range snaps {
		out.Jobs = append(out.Jobs, report.NewJobJSON(sn))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, report.NewJobJSON(j.Snapshot()))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	res, done := j.Result()
	if !done {
		sn := j.Snapshot()
		status := http.StatusConflict
		if !sn.State.Terminal() {
			// Not failed, just not finished yet.
			status = http.StatusAccepted
		}
		writeJSON(w, status, report.NewJobJSON(sn))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Cancel(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, report.NewJobJSON(j.Snapshot()))
}

// lookupJob fetches the path's job or writes a 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return nil, false
	}
	return j, true
}

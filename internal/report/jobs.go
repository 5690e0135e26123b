package report

import (
	"time"

	"fgbs/internal/jobs"
	"fgbs/internal/pipeline"
)

// Wire forms of the async job engine: job snapshots for the
// /v1/jobs listing and polling endpoints, plus the result payloads of
// the three experiment kinds (sweep, randbaseline, ga). The result
// structures are what a completed job persists to disk and what
// GET /v1/jobs/{id}/result returns, so they carry enough identity
// (suite, seed, parameters) to be read standalone later.

// JobJSON is the wire form of one job's observable state.
type JobJSON struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	State    string     `json:"state"`
	Done     int64      `json:"done"`
	Total    int64      `json:"total"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Attempts counts run starts (>1 only for a job resumed after a crash).
	Attempts int `json:"attempts,omitempty"`
	// Interrupted marks a job re-adopted from the journal after a
	// process restart.
	Interrupted bool `json:"interrupted,omitempty"`
}

// NewJobJSON converts a job snapshot to its wire form.
func NewJobJSON(s jobs.Snapshot) *JobJSON {
	jj := &JobJSON{
		ID: s.ID, Kind: s.Kind, State: string(s.State),
		Done: s.Done, Total: s.Total,
		Created: s.Created, Error: s.Err,
		Attempts: s.Attempts, Interrupted: s.Interrupted,
	}
	if !s.Started.IsZero() {
		t := s.Started
		jj.Started = &t
	}
	if !s.Finished.IsZero() {
		t := s.Finished
		jj.Finished = &t
	}
	return jj
}

// SweepPointJSON is one K of a sweep job's result, with the per-target
// slices aligned to the enclosing SweepJSON's Targets.
type SweepPointJSON struct {
	K           int       `json:"k"`
	FinalK      int       `json:"finalK"`
	MedianError []float64 `json:"medianError"`
	Reduction   []float64 `json:"reduction"`
}

// SweepJSON is the completed result of a sweep job (Figure 3).
type SweepJSON struct {
	Suite   string           `json:"suite"`
	Mask    string           `json:"mask"`
	KMin    int              `json:"kmin"`
	KMax    int              `json:"kmax"`
	Targets []string         `json:"targets"`
	Points  []SweepPointJSON `json:"points"`
}

// NewSweepJSON builds the wire form of a sweep result.
func NewSweepJSON(p *pipeline.Profile, pts []pipeline.SweepPoint) *SweepJSON {
	sj := &SweepJSON{}
	for _, m := range p.Targets {
		sj.Targets = append(sj.Targets, m.Name)
	}
	for _, pt := range pts {
		sj.Points = append(sj.Points, SweepPointJSON{
			K: pt.K, FinalK: pt.FinalK,
			MedianError: pt.MedianError, Reduction: pt.Reduction,
		})
	}
	return sj
}

// RandPointJSON is one K of the random-clustering baseline envelope.
type RandPointJSON struct {
	K      int     `json:"k"`
	Guided float64 `json:"guided"`
	Best   float64 `json:"best"`
	Median float64 `json:"median"`
	Worst  float64 `json:"worst"`
}

// RandBaselineJSON is the completed result of a randbaseline job
// (Figure 7): the guided clustering's median error against the
// best/median/worst of `trials` random partitions, per K.
type RandBaselineJSON struct {
	Suite  string          `json:"suite"`
	Mask   string          `json:"mask"`
	Target string          `json:"target"`
	Trials int             `json:"trials"`
	Seed   uint64          `json:"seed"`
	Points []RandPointJSON `json:"points"`
}

// NewRandBaselineJSON builds the wire form of a randbaseline result.
func NewRandBaselineJSON(stats []pipeline.RandomClusteringStats) *RandBaselineJSON {
	rj := &RandBaselineJSON{}
	for _, st := range stats {
		rj.Points = append(rj.Points, RandPointJSON{
			K: st.K, Guided: st.Guided,
			Best: st.Best, Median: st.Median, Worst: st.Worst,
		})
	}
	return rj
}

// GAJSON is the completed result of a ga job (§4.2 feature selection).
type GAJSON struct {
	Suite        string    `json:"suite"`
	Targets      []string  `json:"targets"`
	Population   int       `json:"population"`
	Generations  int       `json:"generations"`
	Seed         uint64    `json:"seed"`
	BestMask     string    `json:"bestMask"`
	BestFeatures []string  `json:"bestFeatures"`
	BestFitness  float64   `json:"bestFitness"`
	Evaluations  int       `json:"evaluations"`
	History      []float64 `json:"history"`
}

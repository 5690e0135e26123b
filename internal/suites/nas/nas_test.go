package nas

import (
	"strings"
	"sync"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/extract"
	"fgbs/internal/sim"
)

func TestSuiteShape(t *testing.T) {
	progs := Suite()
	if len(progs) != 7 {
		t.Fatalf("NAS suite has %d applications, want 7", len(progs))
	}
	counts := map[string]int{}
	total := 0
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
		counts[p.Name] = len(p.Codelets)
		total += len(p.Codelets)
		if p.UncoveredFraction <= 0 || p.UncoveredFraction >= 0.2 {
			t.Errorf("%s uncovered fraction %g implausible", p.Name, p.UncoveredFraction)
		}
	}
	if total != 67 {
		t.Fatalf("NAS suite has %d codelets, want 67 (§4.1)", total)
	}
	for _, app := range []string{"bt", "cg", "ft", "is", "lu", "mg", "sp"} {
		if counts[app] == 0 {
			t.Errorf("application %q missing", app)
		}
	}
}

func TestCodeletNamesPrefixedByApp(t *testing.T) {
	progs, codelets := Codelets()
	seen := map[string]bool{}
	for i, c := range codelets {
		if seen[c.Name] {
			t.Errorf("duplicate codelet %q", c.Name)
		}
		seen[c.Name] = true
		if !strings.HasPrefix(c.Name, progs[i].Name+"_") {
			t.Errorf("codelet %q not prefixed by app %q", c.Name, progs[i].Name)
		}
		if c.SourceRef == "" {
			t.Errorf("codelet %q has no source provenance", c.Name)
		}
		if c.Invocations <= 0 {
			t.Errorf("codelet %q has no invocation count", c.Name)
		}
	}
}

func TestIllBehavedShare(t *testing.T) {
	_, codelets := Codelets()
	flagged := 0
	for _, c := range codelets {
		if c.DatasetVariation > 0 || c.ContextSensitive {
			flagged++
		}
	}
	// Akel et al.: 19% of the NAS codelets are ill-behaved. 13/67.
	if flagged < 11 || flagged > 15 {
		t.Errorf("%d/67 codelets flagged ill-behaved, want ~13 (19%%)", flagged)
	}
}

func TestMGEntirelyIllBehaved(t *testing.T) {
	// Figure 8: per-application subsetting cannot predict MG because
	// its codelets are ill-behaved (the V-cycle changes the dataset at
	// every invocation).
	for _, p := range Suite() {
		if p.Name != "mg" {
			continue
		}
		for _, c := range p.Codelets {
			if c.DatasetVariation == 0 {
				t.Errorf("MG codelet %q lacks dataset variation", c.Name)
			}
		}
	}
}

func TestClusterAandBPairsExist(t *testing.T) {
	_, codelets := Codelets()
	bySrc := map[string]bool{}
	for _, c := range codelets {
		bySrc[c.SourceRef] = true
	}
	// §4.4 "Capturing architecture change" names these four codelets.
	for _, src := range []string{"LU/erhs.f:49-57", "FT/appft.f:45-47", "BT/rhs.f:266-311", "SP/rhs.f:275-320"} {
		if !bySrc[src] {
			t.Errorf("missing paper-cited codelet %s", src)
		}
	}
}

func TestCGDominatedByMatvec(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-heavy")
	}
	ref := arch.Reference()
	var total, matvec float64
	for _, p := range Suite() {
		if p.Name != "cg" {
			continue
		}
		for _, c := range p.Codelets {
			m, err := sim.Measure(p, c, sim.Options{Machine: ref, Mode: sim.ModeInApp, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			share := float64(c.Invocations) * m.Seconds
			total += share
			if c.Name == "cg_matvec" {
				matvec = share
			}
		}
	}
	if frac := matvec / total; frac < 0.85 {
		t.Errorf("cg_matvec is %.0f%% of CG, want ~95%%", frac*100)
	}
}

// TestCGCacheStateAnomaly reproduces the paper's CG finding: the
// dominant codelet passes the 10% screening on the reference but its
// standalone microbenchmark is much faster than the in-application
// codelet on Atom, with fewer cache misses.
func TestCGCacheStateAnomaly(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-heavy")
	}
	progs, codelets := Codelets()
	var idx = -1
	for i, c := range codelets {
		if c.Name == "cg_matvec" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("cg_matvec not found")
	}
	p, c := progs[idx], codelets[idx]

	measure := func(m *arch.Machine, mode sim.Mode) *sim.Measurement {
		r, err := sim.Measure(p, c, sim.Options{Machine: m, Mode: mode, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	refIn := measure(arch.Reference(), sim.ModeInApp)
	refSa := measure(arch.Reference(), sim.ModeStandalone)
	if extract.IllBehaved(refSa.Seconds, refIn.Seconds) {
		t.Fatalf("cg_matvec flagged ill-behaved on reference (sa/in = %.3f); it must pass the screening",
			refSa.Seconds/refIn.Seconds)
	}
	atomIn := measure(arch.Atom(), sim.ModeInApp)
	atomSa := measure(arch.Atom(), sim.ModeStandalone)
	ratio := atomSa.Seconds / atomIn.Seconds
	if ratio > 0.88 {
		t.Errorf("standalone/in-app on Atom = %.3f; want a pronounced gap (paper: microbenchmark much faster)", ratio)
	}
	inMiss := atomIn.Counters.MemAccesses
	saMiss := atomSa.Counters.MemAccesses
	if saMiss*3/2 >= inMiss {
		t.Errorf("standalone misses %d not well below in-app %d (paper: 1.6x fewer)", saMiss, inMiss)
	}
}

// TestReferenceScreening runs the §3.4 screening over the whole NAS
// suite on the reference architecture and checks that (a) roughly the
// flagged 19% fail it, (b) no unflagged codelet fails it, and (c)
// every codelet is long enough to measure.
func TestReferenceScreening(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-heavy")
	}
	progs, codelets := Codelets()
	ref := arch.Reference()
	type result struct {
		ill   bool
		short bool
		err   error
	}
	results := make([]result, len(codelets))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := range codelets {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			p, c := progs[i], codelets[i]
			inApp, err := sim.Measure(p, c, sim.Options{Machine: ref, Mode: sim.ModeInApp, Seed: 1})
			if err != nil {
				results[i].err = err
				return
			}
			sa, err := sim.Measure(p, c, sim.Options{Machine: ref, Mode: sim.ModeStandalone, Seed: 1})
			if err != nil {
				results[i].err = err
				return
			}
			results[i].ill = extract.IllBehaved(sa.Seconds, inApp.Seconds)
			results[i].short = inApp.Counters.Cycles < 25000
		}(i)
	}
	wg.Wait()

	detected := 0
	for i, r := range results {
		c := codelets[i]
		if r.err != nil {
			t.Errorf("%s: %v", c.Name, r.err)
			continue
		}
		flagged := c.DatasetVariation > 0 || c.ContextSensitive
		if r.ill {
			detected++
			if !flagged {
				t.Errorf("%s fails screening but is not a designed ill-behaved codelet", c.Name)
			}
		} else if flagged {
			t.Errorf("%s is flagged ill-behaved but passes the screening", c.Name)
		}
		if r.short {
			t.Errorf("%s too short to measure accurately", c.Name)
		}
	}
	if detected < 11 || detected > 15 {
		t.Errorf("screening detected %d ill-behaved codelets, want ~13 (19%%)", detected)
	}
}

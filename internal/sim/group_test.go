package sim

import (
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/cache"
	"fgbs/internal/corpus"
	"fgbs/internal/ir"
	"fgbs/internal/suites/nas"
	"fgbs/internal/suites/nr"
	"fgbs/internal/suites/poly"
)

// accessStream walks every iteration of the first DefaultInvocations
// invocations of codelet c of p, compiled for machine m alone, and
// returns how many accesses it issues and an FNV-1a-style hash of
// their (address, write) sequence.
func accessStream(t *testing.T, p *ir.Program, c *ir.Codelet, ds *Dataset, m *arch.Machine, mode Mode) (int64, uint64) {
	t.Helper()
	pr, err := prepare(p, c, []*arch.Machine{m}, ds, mode == ModeInApp)
	if err != nil {
		t.Fatal(err)
	}
	// Only begin's flushes reach h; the stream never depends on it.
	h, err := cache.NewHierarchy(m)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	sum := uint64(14695981039346656037)
	for k := 0; k < DefaultInvocations; k++ {
		pr.begin(k, h, mode)
		walkEveryIteration(pr, func(in *innerNode) {
			lo, hi := in.lo(), in.hi()
			if !in.enter(&execState{}, lo, hi) {
				return
			}
			for i := lo; i < hi; i++ {
				*in.cell = i
				for r := range in.refs {
					word := uint64(nextAddr(in, r)) << 1
					if in.refs[r].write {
						word |= 1
					}
					sum = (sum ^ word) * 1099511628211
					n++
				}
			}
		})
	}
	return n, sum
}

// The premise of MeasureGroup: a codelet issues the same (address,
// write) stream on every machine, in both modes, because compile.Lower
// builds every memory reference from the program alone and addresses
// come from the program's dataset. Checked on every codelet of NAS,
// NR, poly and the synthetic corpus fgbsbench profiles.
func TestAccessStreamMachineIndependent(t *testing.T) {
	if raceDetectorEnabled {
		// One goroutine, so the detector has nothing to check, and
		// it makes the walk about thirty times slower.
		t.Skip("single-threaded and slow under -race")
	}
	progs := append(nas.Suite(), nr.Suite()...)
	progs = append(progs, poly.Suite()...)
	mixed, err := corpus.Mixed(20140215, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	apps, err := corpus.ComposeApps(20140215, 2, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(append(progs, mixed...), apps...)
	ms := replayMachines()
	codelets := 0
	for _, p := range progs {
		ds, err := BuildDataset(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range p.Codelets {
			codelets++
			for _, mode := range []Mode{ModeInApp, ModeStandalone} {
				n, sum := accessStream(t, p, c, ds, ms[0], mode)
				if n == 0 {
					t.Errorf("%s %s: no accesses", c.Name, mode)
				}
				for _, m := range ms[1:] {
					if gn, gsum := accessStream(t, p, c, ds, m, mode); gn != n || gsum != sum {
						t.Errorf("%s %s: %s issues %d accesses (hash %x), %s issues %d (hash %x)",
							c.Name, mode, m.Name, gn, gsum, ms[0].Name, n, sum)
					}
				}
			}
		}
	}
	t.Logf("%d codelets, %d machines, both modes", codelets, len(ms))
}

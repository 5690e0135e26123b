package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// loadRealTree loads the enclosing module once for all tests; the
// stdlib source-import is the expensive part and is identical across
// callers.
var realTreeOnce = sync.OnceValues(func() (*Module, error) {
	return LoadModule("../..", 1)
})

func loadRealTree(t *testing.T) *Module {
	t.Helper()
	mod, err := realTreeOnce()
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// Corpus harness: each check has a testdata/src/<check> package whose
// lines carry golden assertions of the form
//
//	want "regexp" ["regexp" ...]
//
// inside a comment. Every diagnostic must match an assertion on its
// line and every assertion must be matched by a diagnostic — so the
// corpora pin both the positive cases and the suppressed ones (a
// suppressed line simply carries no want).

func TestDeterminismCorpus(t *testing.T)    { testCorpus(t, "determinism") }
func TestCtxPropagationCorpus(t *testing.T) { testCorpus(t, "ctxpropagation") }
func TestFloatCompareCorpus(t *testing.T)   { testCorpus(t, "floatcompare") }
func TestErrWrapCorpus(t *testing.T)        { testCorpus(t, "errwrap") }
func TestGuardedByCorpus(t *testing.T)      { testCorpus(t, "guardedby") }
func TestLockOrderCorpus(t *testing.T)      { testCorpus(t, "lockorder") }
func TestGoroutineLeakCorpus(t *testing.T)  { testCorpus(t, "goroutineleak") }
func TestKeyPurityCorpus(t *testing.T)      { testCorpus(t, "keypurity") }
func TestAllocHotCorpus(t *testing.T)       { testCorpus(t, "allochot") }

// TestKeyPuritySinkInRealTree keeps keypurity's peer-URL sink connected
// to the tree it guards. The sink matches HTTPBackend.artifactURL by
// name, and the corpus defines its own HTTPBackend, so renaming the
// real type would silently disable the check while the corpus stays
// green. internal/stage must define the type with the method, and the
// sink must match a call to it there.
func TestKeyPuritySinkInRealTree(t *testing.T) {
	pkgs, err := loadRealTree(t).Select([]string{"fgbs/internal/stage"})
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("Select(fgbs/internal/stage) = %d packages, %v", len(pkgs), err)
	}
	pkg := pkgs[0]
	tn, ok := pkg.Types.Scope().Lookup("HTTPBackend").(*types.TypeName)
	if !ok {
		t.Fatal("internal/stage has no type HTTPBackend: keypurity's peer-URL sink matches nothing")
	}
	if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg.Types, "artifactURL"); m == nil {
		t.Fatal("stage.HTTPBackend has no artifactURL method: keypurity's peer-URL sink matches nothing")
	}
	sinks := 0
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isKeySink(pkg, call) {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "artifactURL" {
					sinks++
				}
			}
			return true
		})
	}
	if sinks == 0 {
		t.Error("keypurity matches no artifactURL call in internal/stage")
	}
}

func testCorpus(t *testing.T, check string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", check)
	pkg, err := LoadDir(dir, "corpus/"+check)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, Options{Checks: []string{check}})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, dir, diags)
}

// checkWants matches diagnostics against dir's golden assertions in
// both directions.
func checkWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants, err := collectWants(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !consumeWant(wants, d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s: no diagnostic matched want %q", key, re)
			}
		}
	}
}

// TestDeterminismWallClockExemption loads the faultpkg corpus under an
// import path ending in internal/fault: the pacing calls are exempt
// (fault injection delays on the wall clock by design), while time.Now
// remains a finding even there.
func TestDeterminismWallClockExemption(t *testing.T) {
	dir := filepath.Join("testdata", "src", "faultpkg")
	pkg, err := LoadDir(dir, "corpus/internal/fault")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, Options{Checks: []string{"determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, dir, diags)
}

// TestDeterminismStagePurity loads the stagepkg corpus under an import
// path ending in internal/stage, where determinism findings are
// unsuppressable: each //fgbs:allow determinism directive is itself a
// finding and the finding it tried to silence survives.
func TestDeterminismStagePurity(t *testing.T) {
	dir := filepath.Join("testdata", "src", "stagepkg")
	pkg, err := LoadDir(dir, "corpus/internal/stage")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, Options{Checks: []string{"determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, dir, diags)
}

// TestDeterminismBenchTimingExemption loads the benchpkg corpus under
// an import path ending in internal/bench, where time.Now is sanctioned
// (elapsed wall time is the benchmark runner's product) while pacing
// and math/rand remain findings even there.
func TestDeterminismBenchTimingExemption(t *testing.T) {
	dir := filepath.Join("testdata", "src", "benchpkg")
	pkg, err := LoadDir(dir, "corpus/internal/bench")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, Options{Checks: []string{"determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, dir, diags)
}

// TestDeterminismBenchExemptionIsPathScoped is the control for the
// bench carve-out: the identical time.Now code that is silent under
// corpus/internal/bench is a finding under any other import path, so
// the exemption rides on the package path, not on the code's shape.
func TestDeterminismBenchExemptionIsPathScoped(t *testing.T) {
	src := `package snippet

import "time"

func elapsed(op func()) time.Duration {
	start := time.Now()
	op()
	return time.Now().Sub(start)
}
`
	pkg := loadSnippet(t, src)
	diags, err := Run([]*Package{pkg}, Options{Checks: []string{"determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings outside internal/bench, want 2 (one per time.Now): %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "time.Now reads the wall clock") {
			t.Errorf("unexpected finding: %v", d)
		}
	}
}

// TestDeterminismAllowWorksOutsideStage is the control for the purity
// rule: the same suppressed time.Now that is a double finding inside
// internal/stage stays silent in an ordinary package.
func TestDeterminismAllowWorksOutsideStage(t *testing.T) {
	src := `package snippet

import "time"

func stamp() time.Time {
	//fgbs:allow determinism display timestamp only
	return time.Now()
}
`
	pkg := loadSnippet(t, src)
	diags, err := Run([]*Package{pkg}, Options{Checks: []string{"determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("suppressed finding leaked outside internal/stage: %v", diags)
	}
}

// TestDeterminismAbortExemptionIsScoped is the control for the abort
// rule's two carve-outs: the exact same os.Exit call is a finding in a
// library package, silent in package main (a CLI's error exit), and
// silent under an import path ending in internal/fault (the crashpoint
// hooks — see the faultpkg corpus for the positive case).
func TestDeterminismAbortExemptionIsScoped(t *testing.T) {
	body := `

import "os"

func bail(code int) {
	os.Exit(code)
}
`
	library := loadSnippet(t, "package snippet"+body)
	diags, err := Run([]*Package{library}, Options{Checks: []string{"determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "os.Exit aborts the process mid-flight") {
		t.Fatalf("library os.Exit: got %v, want one abort finding", diags)
	}

	cli := loadSnippet(t, "package main"+body+"\nfunc main() { bail(0) }\n")
	diags, err = Run([]*Package{cli}, Options{Checks: []string{"determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("os.Exit flagged in package main: %v", diags)
	}
}

var wantLineRe = regexp.MustCompile(`\bwant ("(?:[^"\\]|\\.)*")`)
var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants parses every want assertion in dir's Go files, keyed
// by "file:line".
func collectWants(dir string) (map[string][]*regexp.Regexp, error) {
	wants := make(map[string][]*regexp.Regexp)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			loc := wantLineRe.FindStringIndex(text)
			if loc == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, line)
			for _, m := range wantArgRe.FindAllStringSubmatch(text[loc[0]:], -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					f.Close()
					return nil, fmt.Errorf("%s: bad want %q: %v", key, m[1], err)
				}
				wants[key] = append(wants[key], re)
			}
		}
		f.Close()
	}
	return wants, nil
}

// consumeWant marks the first unconsumed assertion on the diagnostic's
// line that matches its message.
func consumeWant(wants map[string][]*regexp.Regexp, file string, line int, msg string) bool {
	key := fmt.Sprintf("%s:%d", file, line)
	for i, re := range wants[key] {
		if re != nil && re.MatchString(msg) {
			wants[key][i] = nil
			return true
		}
	}
	return false
}

// TestRealTreeIsClean is the acceptance gate: the shipped module must
// carry zero findings (fixed or justified with //fgbs:allow).
func TestRealTreeIsClean(t *testing.T) {
	mod := loadRealTree(t)
	diags, err := Run(mod.Pkgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding on the real tree: %s", d)
	}
}

// TestRunRejectsUnknownCheck pins the flag-validation convention: the
// error names the valid checks.
func TestRunRejectsUnknownCheck(t *testing.T) {
	_, err := Run(nil, Options{Checks: []string{"ghost"}})
	if err == nil || !strings.Contains(err.Error(), "determinism") {
		t.Errorf("Run with unknown check = %v, want error listing valid checks", err)
	}
}

// TestParallelRunMatchesSerial is the byte-identical guarantee at the
// Run level: the same loaded module analyzed with one worker and with
// many must render the exact same diagnostics in the exact same order.
func TestParallelRunMatchesSerial(t *testing.T) {
	mod := loadRealTree(t)
	render := func(diags []Diagnostic) string {
		var sb strings.Builder
		for _, d := range diags {
			sb.WriteString(d.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	serial, err := Run(mod.Pkgs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(mod.Pkgs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if render(serial) != render(parallel) {
		t.Errorf("parallel output differs from serial:\nserial:\n%sparallel:\n%s",
			render(serial), render(parallel))
	}
}

// TestLoadModuleWorkersMatch: the wave-scheduled loader at 8 workers
// must be observationally identical to its 1-worker run — same
// packages in the same order, and identical analysis output on top.
func TestLoadModuleWorkersMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module a second time")
	}
	serialMod := loadRealTree(t)
	parMod, err := LoadModule("../..", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serialMod.Pkgs) != len(parMod.Pkgs) {
		t.Fatalf("parallel load found %d packages, serial %d", len(parMod.Pkgs), len(serialMod.Pkgs))
	}
	for i := range serialMod.Pkgs {
		if serialMod.Pkgs[i].Path != parMod.Pkgs[i].Path {
			t.Errorf("package %d: parallel %s, serial %s", i, parMod.Pkgs[i].Path, serialMod.Pkgs[i].Path)
		}
	}
	serialDiags, err := Run(serialMod.Pkgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parDiags, err := Run(parMod.Pkgs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serialDiags) != len(parDiags) {
		t.Fatalf("parallel-load analysis found %d diagnostics, serial %d", len(parDiags), len(serialDiags))
	}
	for i := range serialDiags {
		if serialDiags[i].String() != parDiags[i].String() {
			t.Errorf("diagnostic %d differs: parallel %q, serial %q", i, parDiags[i], serialDiags[i])
		}
	}
}

// TestRunTimings: the injected clock yields one timing per selected
// check, in canonical order.
func TestRunTimings(t *testing.T) {
	mod := loadRealTree(t)
	pkgs, err := mod.Select([]string{"./internal/rng"})
	if err != nil {
		t.Fatal(err)
	}
	var fake time.Duration
	var order []string
	_, err = Run(pkgs, Options{
		Clock: func() time.Duration { fake += time.Millisecond; return fake },
		OnTiming: func(check string, elapsed time.Duration) {
			order = append(order, check)
			if elapsed <= 0 {
				t.Errorf("check %s: elapsed %v, want > 0 with a strictly advancing clock", check, elapsed)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(CheckNames(), ","); strings.Join(order, ",") != want {
		t.Errorf("timing order %v, want canonical %v", order, CheckNames())
	}
}

// TestAllowOnSameLine: the directive works as a trailing comment on
// the flagged line itself.
func TestAllowOnSameLine(t *testing.T) {
	src := `package snippet

import "time"

func f() time.Time {
	return time.Now() //fgbs:allow determinism display timestamp only
}
`
	pkg := loadSnippet(t, src)
	diags, err := Run([]*Package{pkg}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("same-line directive failed to suppress: %v", diags)
	}
}

// TestMalformedMultiCheckAllow: one directive names one check; a
// comma-joined list is a malformed directive (reported), and neither
// named check is suppressed.
func TestMalformedMultiCheckAllow(t *testing.T) {
	src := `package snippet

import "time"

func f() time.Time {
	//fgbs:allow determinism,floatcompare two checks in one directive
	return time.Now()
}
`
	pkg := loadSnippet(t, src)
	diags, err := Run([]*Package{pkg}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var badDirective, determinism bool
	for _, d := range diags {
		if d.Check == "allow" && strings.Contains(d.Message, `unknown check "determinism,floatcompare"`) {
			badDirective = true
		}
		if d.Check == "determinism" {
			determinism = true
		}
	}
	if !badDirective {
		t.Errorf("diagnostics %v lack the malformed-directive finding", diags)
	}
	if !determinism {
		t.Errorf("comma-joined directive suppressed the finding anyway: %v", diags)
	}
}

// TestStageAllowIsItselfReported pins the noSuppress interaction from
// the driver's point of view: inside a package whose path ends in
// internal/stage, an //fgbs:allow determinism both fails to suppress
// and produces its own finding.
func TestStageAllowIsItselfReported(t *testing.T) {
	src := `package stage

import "time"

func stamp() int64 {
	//fgbs:allow determinism trying to sneak a clock into key hashing
	return time.Now().UnixNano()
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stage.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "corpus/internal/stage")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, Options{Checks: []string{"determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	var suppressionReported, findingSurvives bool
	for _, d := range diags {
		if strings.Contains(d.Message, "cannot be suppressed") || strings.Contains(d.Message, "suppress") {
			suppressionReported = true
		}
		if strings.Contains(d.Message, "time.Now") {
			findingSurvives = true
		}
	}
	if !findingSurvives {
		t.Errorf("the allow directive silenced a noSuppress finding: %v", diags)
	}
	if !suppressionReported {
		t.Errorf("diagnostics %v lack a finding reporting the suppression attempt itself", diags)
	}
}

// loadSnippet type-checks one generated file as a package, for cases
// (like malformed suppressions) that cannot carry same-line want
// assertions.
func loadSnippet(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snippet.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "corpus/snippet")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestMalformedAllows: a suppression that cannot work (no check, bad
// check, or no reason) must itself surface as a finding instead of
// silently not suppressing.
func TestMalformedAllows(t *testing.T) {
	cases := []struct {
		name      string
		directive string
		want      string
	}{
		{"bare", "//fgbs:allow", "needs a check name and a reason"},
		{"unknown check", "//fgbs:allow ghostcheck because reasons", `unknown check "ghostcheck"`},
		{"missing reason", "//fgbs:allow determinism", "needs a reason"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := "package snippet\n\nimport \"time\"\n\nfunc f() time.Time {\n\t" +
				c.directive + "\n\treturn time.Now()\n}\n"
			pkg := loadSnippet(t, src)
			diags, err := Run([]*Package{pkg}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var allowMsg, determinism bool
			for _, d := range diags {
				if d.Check == "allow" && strings.Contains(d.Message, c.want) {
					allowMsg = true
				}
				if d.Check == "determinism" {
					determinism = true
				}
			}
			if !allowMsg {
				t.Errorf("diagnostics %v lack an allow finding containing %q", diags, c.want)
			}
			if !determinism {
				t.Errorf("broken directive still suppressed the determinism finding: %v", diags)
			}
		})
	}
}

// TestAllowOnPrecedingLine: the directive suppresses from its own line
// or the line directly above, but not further away.
func TestAllowOnPrecedingLine(t *testing.T) {
	src := `package snippet

import "time"

func f() time.Time {
	//fgbs:allow determinism display timestamp only
	return time.Now()
}

func g() time.Time {
	//fgbs:allow determinism too far away to apply

	return time.Now()
}
`
	pkg := loadSnippet(t, src)
	diags, err := Run([]*Package{pkg}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the finding in g", diags)
	}
	if diags[0].Pos.Line != 13 {
		t.Errorf("finding at line %d, want 13 (g's time.Now)", diags[0].Pos.Line)
	}
}

// TestSelectPatterns covers the package-pattern forms fgbsvet accepts.
func TestSelectPatterns(t *testing.T) {
	mod := loadRealTree(t)
	cases := []struct {
		patterns []string
		wantAny  string
		wantErr  bool
	}{
		{nil, "fgbs/internal/analysis", false},
		{[]string{"./..."}, "fgbs/internal/rng", false},
		{[]string{"./internal/rng"}, "fgbs/internal/rng", false},
		{[]string{"internal/suites/..."}, "fgbs/internal/suites/nas", false},
		{[]string{"fgbs/internal/ga"}, "fgbs/internal/ga", false},
		{[]string{"."}, "fgbs", false},
		{[]string{"./nonexistent"}, "", true},
	}
	for _, c := range cases {
		pkgs, err := mod.Select(c.patterns)
		if c.wantErr {
			if err == nil {
				t.Errorf("Select(%v) succeeded, want error", c.patterns)
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%v): %v", c.patterns, err)
			continue
		}
		found := false
		for _, p := range pkgs {
			if p.Path == c.wantAny {
				found = true
			}
		}
		if !found {
			t.Errorf("Select(%v) = %d packages without %s", c.patterns, len(pkgs), c.wantAny)
		}
	}
}

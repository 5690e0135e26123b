// Package analysis implements fgbsvet, the repository's stdlib-only
// invariant analyzer. It loads every package in the module with
// go/parser and go/types (no external dependencies) and runs a suite
// of checks that encode the reproducibility contracts the experiment
// pipeline depends on: randomness flows through internal/rng, wall
// clocks are injected, contexts propagate, floats are never compared
// raw, errors wrap their causes, and annotated mutex invariants hold.
//
// Each check is individually toggleable (see Options.Checks) and every
// finding can be suppressed at the site with an inline directive:
//
//	//fgbs:allow <check> <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory: a suppression without a justification is itself
// reported.
package analysis

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
	"time"

	"fgbs/internal/fanout"
)

// A Diagnostic is one finding at a resolved source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string

	// noSuppress marks findings that no //fgbs:allow directive can
	// silence — used where the suppression itself is the defect (e.g.
	// an allow-determinism inside internal/stage, whose key hashing
	// must stay observably pure). Without it such a finding would be
	// swallowed by the very directive it reports.
	noSuppress bool
}

// String renders the diagnostic in the standard file:line:col form
// used by go vet, with the originating check appended so readers know
// which //fgbs:allow name suppresses it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Check)
}

// A Check is one named invariant analyzer.
type Check struct {
	// Name is the identifier used by -checks and //fgbs:allow.
	Name string
	// Doc is the one-line description printed by fgbsvet -list.
	Doc string

	run func(*Pass)
}

// registry holds every check in its canonical reporting order: the
// five syntactic/type-level checks from the first analyzer release,
// then the flow-sensitive generation (CFG + package summaries).
var registry = []*Check{
	determinismCheck,
	ctxPropagationCheck,
	floatCompareCheck,
	errWrapCheck,
	guardedByCheck,
	lockorderCheck,
	goroutineleakCheck,
	keypurityCheck,
	allochotCheck,
}

// Checks returns the registered checks in canonical order.
func Checks() []*Check {
	out := make([]*Check, len(registry))
	copy(out, registry)
	return out
}

// CheckNames returns the registered check names in canonical order.
func CheckNames() []string {
	names := make([]string, len(registry))
	for i, c := range registry {
		names[i] = c.Name
	}
	return names
}

// A Pass carries one (check, package) unit of work. Check run
// functions read the syntax and type information and call Reportf.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *Package
	check *Check
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Fset.Position(pos), false, format, args...)
}

// ReportfNoSuppress records a finding that no //fgbs:allow can
// silence.
func (p *Pass) ReportfNoSuppress(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Fset.Position(pos), true, format, args...)
}

func (p *Pass) reportAt(pos token.Position, noSuppress bool, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:        pos,
		Check:      p.check.Name,
		Message:    fmt.Sprintf(format, args...),
		noSuppress: noSuppress,
	})
}

// Options configure Run.
type Options struct {
	// Checks selects which checks run, by name. Empty means all.
	Checks []string

	// Workers sets Run's package-level parallelism: 0 or 1 analyze
	// serially, N>1 analyzes up to N packages concurrently. Packages
	// are independent analysis units (summaries and suppression tables
	// are per-package), and the final position sort gives a total
	// order, so output is byte-identical at any worker count.
	Workers int

	// Clock, when set, enables per-check timing: it must return a
	// monotonically non-decreasing reading (e.g. time.Since of a fixed
	// start). The analyzer cannot call time.Now itself — its own
	// determinism check forbids wall-clock reads module-wide — so the
	// driver injects one.
	Clock func() time.Duration

	// OnTiming receives, per selected check, the cumulative time the
	// check spent across all packages. Called once per check in
	// canonical order after analysis completes; requires Clock.
	OnTiming func(check string, elapsed time.Duration)
}

// Run executes the selected checks over pkgs and returns the surviving
// diagnostics (suppressed findings removed, malformed suppressions
// added), sorted by position. It fails only on configuration errors
// such as an unknown check name; the error lists the valid names,
// matching the cmd/fgbs flag-validation convention.
func Run(pkgs []*Package, opts Options) ([]Diagnostic, error) {
	selected := registry
	if len(opts.Checks) > 0 {
		selected = nil
		for _, name := range opts.Checks {
			c := lookupCheck(name)
			if c == nil {
				return nil, fmt.Errorf("unknown check %q (valid: %s)",
					name, strings.Join(CheckNames(), ", "))
			}
			selected = append(selected, c)
		}
	}

	// Each package gets its own diagnostic slice so packages can be
	// analyzed concurrently; merging afterwards keeps one code path
	// for serial and parallel runs.
	perPkg := make([][]Diagnostic, len(pkgs))
	var timingMu sync.Mutex
	timings := make(map[string]time.Duration)
	// The context is never done and no unit fails, so Run returns nil.
	_ = fanout.Run(context.Background(), len(pkgs), opts.Workers, func(i int) error {
		pkg := pkgs[i]
		var diags []Diagnostic
		for _, c := range selected {
			var start time.Duration
			if opts.Clock != nil {
				start = opts.Clock()
			}
			pass := &Pass{Fset: pkg.Fset, Pkg: pkg, check: c, diags: &diags}
			c.run(pass)
			if opts.Clock != nil {
				elapsed := opts.Clock() - start
				timingMu.Lock()
				timings[c.Name] += elapsed
				timingMu.Unlock()
			}
		}
		perPkg[i] = append(diags, pkg.badAllows...)
		return nil
	})

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	diags = filterSuppressed(pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		// Message is the final tiebreaker: two findings from one check
		// at one position must still compare deterministically for the
		// parallel driver's byte-identical guarantee.
		return a.Message < b.Message
	})
	if opts.OnTiming != nil {
		for _, c := range selected {
			opts.OnTiming(c.Name, timings[c.Name])
		}
	}
	return diags, nil
}

func lookupCheck(name string) *Check {
	for _, c := range registry {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// An allowDirective is one parsed //fgbs:allow comment.
type allowDirective struct {
	check  string
	reason string
}

const allowPrefix = "//fgbs:allow"

// collectAllows scans a file's comments for //fgbs:allow directives,
// recording well-formed ones by line and reporting malformed ones
// (missing check name, unknown check, or missing reason) so that a
// suppression never silently fails to suppress.
func (p *Package) collectAllows(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			rest := strings.TrimPrefix(c.Text, allowPrefix)
			fields := strings.Fields(rest)
			switch {
			case len(fields) == 0:
				p.badAllow(pos, "//fgbs:allow needs a check name and a reason (valid checks: %s)",
					strings.Join(CheckNames(), ", "))
			case lookupCheck(fields[0]) == nil:
				p.badAllow(pos, "//fgbs:allow names unknown check %q (valid: %s)",
					fields[0], strings.Join(CheckNames(), ", "))
			case len(fields) == 1:
				p.badAllow(pos, "//fgbs:allow %s needs a reason", fields[0])
			default:
				key := allowKey{pos.Filename, pos.Line}
				p.allows[key] = append(p.allows[key], allowDirective{
					check:  fields[0],
					reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
}

func (p *Package) badAllow(pos token.Position, format string, args ...any) {
	p.badAllows = append(p.badAllows, Diagnostic{
		Pos:     pos,
		Check:   "allow",
		Message: fmt.Sprintf(format, args...),
	})
}

// allowKey addresses the suppression table: one file line.
type allowKey struct {
	file string
	line int
}

// filterSuppressed drops diagnostics covered by an //fgbs:allow for
// the same check on the flagged line or the line directly above.
func filterSuppressed(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	allows := make(map[allowKey][]allowDirective)
	for _, pkg := range pkgs {
		for k, v := range pkg.allows {
			allows[k] = append(allows[k], v...)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !d.noSuppress && allowed(allows, d) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

func allowed(allows map[allowKey][]allowDirective, d Diagnostic) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, a := range allows[allowKey{d.Pos.Filename, line}] {
			if a.check == d.Check {
				return true
			}
		}
	}
	return false
}

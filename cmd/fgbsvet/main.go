// Command fgbsvet runs the repository's invariant analyzers over the
// module and reports findings in the standard file:line:col form.
//
// Usage:
//
//	fgbsvet [flags] [packages]
//
// Packages are go-tool-style patterns ("./...", "./internal/pipeline",
// "fgbs/internal/ga/..."); the default is ./... from the current
// module. Exit status is 0 when the tree is clean, 1 when any finding
// survives, and 2 on usage or load errors.
//
// Flags:
//
//	-checks list   comma-separated checks to run (default: all)
//	-list          print the available checks (sorted) and exit
//	-workers N     package-level parallelism for loading and analysis
//	               (0 = GOMAXPROCS, 1 = serial); output is
//	               byte-identical at any worker count
//	-json path     write a machine-readable report (findings plus
//	               per-check timings) to path, or to stdout with "-";
//	               vet-style lines still print unless path is "-"
//
// Findings are suppressed at the site with an inline
// //fgbs:allow <check> <reason> comment; see DESIGN.md's "Static
// analysis" section for each check's contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"fgbs/internal/analysis"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// jsonReport is the -json output: everything a CI artifact needs to
// trend analyzer health and speed without scraping vet lines.
type jsonReport struct {
	// Packages is how many packages were analyzed.
	Packages int `json:"packages"`
	// Workers is the resolved parallelism the run used.
	Workers int `json:"workers"`
	// ElapsedMS is total wall time: module load + analysis.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Checks carries the per-check cumulative analysis time, in the
	// canonical check order.
	Checks []jsonTiming `json:"checks"`
	// Findings lists every surviving diagnostic, in report order.
	Findings []jsonFinding `json:"findings"`
}

type jsonTiming struct {
	Check     string  `json:"check"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("fgbsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checksFlag := fs.String("checks", "", "comma-separated checks to run (default: all)")
	list := fs.Bool("list", false, "print the available checks and exit")
	workersFlag := fs.Int("workers", 0, "package-level parallelism (0 = GOMAXPROCS, 1 = serial)")
	jsonPath := fs.String("json", "", `write a JSON report to this path ("-" = stdout)`)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		// Sorted, not registry order: -list is a reference listing,
		// and a stable alphabetical order is what readers (and the
		// golden test) expect.
		checks := analysis.Checks()
		sort.Slice(checks, func(i, j int) bool { return checks[i].Name < checks[j].Name })
		for _, c := range checks {
			fmt.Fprintf(stdout, "%-16s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	opts, err := parseChecks(*checksFlag)
	if err != nil {
		fmt.Fprintln(stderr, "fgbsvet:", err)
		return 2
	}
	workers := *workersFlag
	if workers < 0 {
		fmt.Fprintf(stderr, "fgbsvet: -workers must be >= 0, got %d\n", workers)
		return 2
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts.Workers = workers

	// The analyzer cannot read the wall clock itself (its own
	// determinism check forbids it module-wide), so the driver injects
	// the timing source.
	//fgbs:allow determinism the vet driver times its own checks; analysis results never depend on it
	start := time.Now()
	//fgbs:allow determinism monotonic elapsed reading injected as the analyzer's clock
	opts.Clock = func() time.Duration { return time.Since(start) }
	report := jsonReport{Workers: workers}
	opts.OnTiming = func(check string, elapsed time.Duration) {
		report.Checks = append(report.Checks, jsonTiming{Check: check, ElapsedMS: ms(elapsed)})
	}

	mod, err := analysis.LoadModule(".", workers)
	if err != nil {
		fmt.Fprintln(stderr, "fgbsvet:", err)
		return 2
	}
	pkgs, err := mod.Select(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fgbsvet:", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, opts)
	if err != nil {
		fmt.Fprintln(stderr, "fgbsvet:", err)
		return 2
	}
	report.Packages = len(pkgs)
	report.ElapsedMS = ms(opts.Clock())
	for _, d := range diags {
		report.Findings = append(report.Findings, jsonFinding{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Check:   d.Check,
			Message: d.Message,
		})
	}

	// With -json -, stdout carries the report alone so it stays
	// machine-parseable; vet-style lines are for humans and CI logs.
	jsonToStdout := *jsonPath == "-"
	if !jsonToStdout {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if *jsonPath != "" {
		if err := writeReport(stdout, *jsonPath, &report); err != nil {
			fmt.Fprintln(stderr, "fgbsvet:", err)
			return 2
		}
	}
	fmt.Fprintf(stderr, "fgbsvet: %d package(s) analyzed in %.0fms (workers=%d)\n",
		report.Packages, report.ElapsedMS, workers)
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fgbsvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// ms converts to milliseconds for the JSON report.
func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// writeReport marshals the report to path, or to stdout when path is
// "-".
func writeReport(stdout io.Writer, path string, report *jsonReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// parseChecks validates the -checks flag up front, with errors that
// list the valid names (the cmd/fgbs convention).
func parseChecks(list string) (analysis.Options, error) {
	var opts analysis.Options
	if list == "" {
		return opts, nil
	}
	valid := make(map[string]bool)
	for _, name := range analysis.CheckNames() {
		valid[name] = true
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !valid[name] {
			return opts, fmt.Errorf("unknown check %q (valid: %s)",
				name, strings.Join(analysis.CheckNames(), ", "))
		}
		opts.Checks = append(opts.Checks, name)
	}
	if len(opts.Checks) == 0 {
		return opts, fmt.Errorf("-checks lists no checks (valid: %s)",
			strings.Join(analysis.CheckNames(), ", "))
	}
	return opts, nil
}

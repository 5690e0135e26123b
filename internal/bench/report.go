package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// Human renders the aligned table a developer reads at the terminal.
func Human(w io.Writer, r *Run) error {
	t := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	mode := "full"
	if r.Quick {
		mode = "quick"
	}
	fmt.Fprintf(t, "Spec\tReps\tMedian\tMAD\tAllocs/op\tB/op\n")
	for _, res := range r.Results {
		fmt.Fprintf(t, "%s\t%d", res.Name, res.Reps)
		if res.Rejected > 0 {
			fmt.Fprintf(t, " (-%d)", res.Rejected)
		}
		fmt.Fprintf(t, "\t%s\t%s\t%.1f\t%.0f\n",
			formatNS(res.MedianNS), formatNS(res.MADNS), res.AllocsPerOp, res.BytesPerOp)
	}
	fmt.Fprintf(t, "(%d specs, %s mode)\n", len(r.Results), mode)
	return t.Flush()
}

// JSON renders the machine form — the exact layout committed as
// BENCH_<n>.json and read back by ReadRun.
func JSON(w io.Writer, r *Run) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// ReadRun decodes a Run persisted by the JSON reporter, rejecting
// schema versions this build does not understand.
func ReadRun(r io.Reader) (*Run, error) {
	var run Run
	if err := json.NewDecoder(r).Decode(&run); err != nil {
		return nil, fmt.Errorf("bench: decoding run: %w", err)
	}
	if run.Version != RunVersion {
		return nil, fmt.Errorf("bench: run has version %d, this build reads version %d — regenerate the baseline", run.Version, RunVersion)
	}
	return &run, nil
}

// formatNS renders a nanosecond count at human scale with a fixed rule,
// so golden tests and eyeballs agree across runs.
func formatNS(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

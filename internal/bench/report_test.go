package bench

import (
	"bytes"
	"strings"
	"testing"
)

func sampleRun() *Run {
	return &Run{
		Version: RunVersion,
		Quick:   false,
		Reps:    25,
		Results: []Result{
			{Name: "cluster/ward-distance", Reps: 25, Rejected: 2, MedianNS: 1.53e6, MADNS: 4.2e4, AllocsPerOp: 310, BytesPerOp: 81920},
			{Name: "stage/key-hash", Reps: 25, MedianNS: 875.4e3, MADNS: 1.1e3, AllocsPerOp: 12.5, BytesPerOp: 2048},
			{Name: "stats/median-mad", Reps: 25, MedianNS: 512, MADNS: 8, AllocsPerOp: 0, BytesPerOp: 0},
		},
	}
}

// TestHumanGolden pins the human table byte-for-byte: the format is the
// terminal contract and golden so drift is a deliberate edit here.
func TestHumanGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Human(&buf, sampleRun()); err != nil {
		t.Fatalf("Human: %v", err)
	}
	want := strings.Join([]string{
		"Spec                   Reps     Median   MAD     Allocs/op  B/op",
		"cluster/ward-distance  25 (-2)  1.53ms   42.0µs  310.0      81920",
		"stage/key-hash         25       875.4µs  1.1µs   12.5       2048",
		"stats/median-mad       25       512ns    8ns     0.0        0",
		"(3 specs, full mode)",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("human table drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHumanQuickFooter(t *testing.T) {
	run := sampleRun()
	run.Quick = true
	var buf bytes.Buffer
	if err := Human(&buf, run); err != nil {
		t.Fatalf("Human: %v", err)
	}
	if !strings.Contains(buf.String(), "quick mode") {
		t.Errorf("quick run footer missing 'quick mode':\n%s", buf.String())
	}
}

// TestJSONRoundTrip proves the persisted form survives encode/decode
// unchanged — the property the committed baseline depends on.
func TestJSONRoundTrip(t *testing.T) {
	run := sampleRun()
	var buf bytes.Buffer
	if err := JSON(&buf, run); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	back, err := ReadRun(&buf)
	if err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if back.Version != run.Version || back.Quick != run.Quick || back.Reps != run.Reps {
		t.Fatalf("header drifted: %+v vs %+v", back, run)
	}
	if len(back.Results) != len(run.Results) {
		t.Fatalf("got %d results, want %d", len(back.Results), len(run.Results))
	}
	for i, res := range back.Results {
		if res != run.Results[i] {
			t.Errorf("result %d drifted: %+v vs %+v", i, res, run.Results[i])
		}
	}
}

func TestReadRunRejectsWrongVersion(t *testing.T) {
	if _, err := ReadRun(strings.NewReader(`{"version": 99, "results": []}`)); err == nil {
		t.Fatal("ReadRun accepted an unknown schema version")
	}
	if _, err := ReadRun(strings.NewReader(`not json`)); err == nil {
		t.Fatal("ReadRun accepted malformed JSON")
	}
}

func TestFormatNS(t *testing.T) {
	cases := []struct {
		ns   float64
		want string
	}{
		{3, "3ns"},
		{999, "999ns"},
		{1000, "1.0µs"},
		{875400, "875.4µs"},
		{1.53e6, "1.53ms"},
		{2.5e9, "2.50s"},
	}
	for _, tc := range cases {
		if got := formatNS(tc.ns); got != tc.want {
			t.Errorf("formatNS(%v) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}

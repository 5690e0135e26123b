package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fgbs/internal/suites"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8093" || cfg.cacheN != 256 || cfg.seed != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
	if !reflect.DeepEqual(cfg.serve, suites.Names()) {
		t.Errorf("serve = %v, want every registered suite %v", cfg.serve, suites.Names())
	}
	if cfg.preload != nil {
		t.Errorf("preload = %v, want none", cfg.preload)
	}
}

func TestParseFlagsLists(t *testing.T) {
	cfg, err := parseFlags([]string{"-suites", "nr,poly", "-preload", "nr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.serve) != 2 || cfg.serve[0] != "nr" || cfg.serve[1] != "poly" {
		t.Errorf("serve = %v", cfg.serve)
	}
	if len(cfg.preload) != 1 || cfg.preload[0] != "nr" {
		t.Errorf("preload = %v", cfg.preload)
	}
}

func TestParseFlagsRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown suite", []string{"-suites", "spec"}, "valid: nas, nr, poly, joint"},
		{"preload outside served", []string{"-suites", "nr", "-preload", "nas"}, "valid: nr"},
		{"bad cachesize", []string{"-cachesize", "0"}, "must be positive"},
		{"negative jobworkers", []string{"-jobworkers", "-1"}, "-jobworkers"},
		{"negative jobretention", []string{"-jobretention", "-5m"}, "-jobretention"},
		{"positional arg", []string{"extra"}, "unexpected argument"},
		{"unknown flag", []string{"-bogus"}, ""},
		{"peer without scheme", []string{"-peers", "example.com:8093"}, "absolute http(s) base URL"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseFlags(c.args)
			if err == nil {
				t.Fatalf("parseFlags(%v) succeeded, want error", c.args)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestParseFlagsTiers pins the -peers plumbing: peer URLs parse into
// the config with surrounding whitespace trimmed, with or without a
// -profiledir.
func TestParseFlagsTiers(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-profiledir", t.TempDir(),
		"-peers", "http://127.0.0.1:9, https://peer.example:8093",
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://127.0.0.1:9", "https://peer.example:8093"}; !reflect.DeepEqual(cfg.peers, want) {
		t.Errorf("peers = %v, want %v", cfg.peers, want)
	}

	// -peers alone (no directory) is a valid peer-only configuration.
	cfg, err = parseFlags([]string{"-peers", "http://127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://127.0.0.1:9"}; !reflect.DeepEqual(cfg.peers, want) {
		t.Errorf("peers = %v, want %v", cfg.peers, want)
	}
}

// TestParseFlagsFaultProfile validates -faultprofile up front: a
// daemon that starts and then measures garbage (or dies on its first
// build) because of a typo in the profile is strictly worse than one
// that refuses to start.
func TestParseFlagsFaultProfile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	good := write("good.json", `{"seed": 7, "rules": [{"machine": "Atom", "transientRate": 0.2}]}`)
	cfg, err := parseFlags([]string{"-faultprofile", good})
	if err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	if cfg.faults == nil || cfg.faults.Seed != 7 || len(cfg.faults.Rules) != 1 {
		t.Errorf("faults = %+v, want the parsed profile", cfg.faults)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing file", []string{"-faultprofile", filepath.Join(dir, "nope.json")}, "-faultprofile"},
		{"invalid JSON", []string{"-faultprofile", write("junk.json", "{not json")}, "invalid profile"},
		{"unknown field", []string{"-faultprofile", write("field.json", `{"rules": [{"transientRtae": 0.2}]}`)}, "valid fields"},
		{"rate out of range", []string{"-faultprofile", write("rate.json", `{"rules": [{"transientRate": 1.5}]}`)}, "transientRate"},
		{"unknown machine", []string{"-faultprofile", write("machine.json", `{"rules": [{"machine": "atom", "permanentRate": 1}]}`)}, "Nehalem, Atom, Core 2, Sandy Bridge"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseFlags(c.args)
			if err == nil {
				t.Fatalf("parseFlags(%v) succeeded, want error", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestRunShutsDownOnContextCancel starts the daemon on an ephemeral
// port and cancels its context: run must return promptly and cleanly —
// the SIGINT/SIGTERM path without the signal plumbing.
func TestRunShutsDownOnContextCancel(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down after cancellation")
	}
}

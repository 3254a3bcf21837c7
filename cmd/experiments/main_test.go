package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCheapExperiments(t *testing.T) {
	for _, which := range []string{"fig1", "fig5", "table2", "table4", "figs8-11"} {
		if err := run([]string{"-run", which}); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	ferr := f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = orig
	if ferr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", ferr, out)
	}
	return string(out)
}

// TestCheckpointResumeCLI drives -checkpoint-dir/-resume end to end on the
// cheap table4 experiment: the journaled run prints the plain run's table,
// and resuming the complete journal prints it again without executing
// anything (an executed job would append to the journal).
func TestCheckpointResumeCLI(t *testing.T) {
	want := captureStdout(t, func() error { return run([]string{"-run", "table4"}) })
	dir := t.TempDir()
	first := captureStdout(t, func() error {
		return run([]string{"-run", "table4", "-checkpoint-dir", dir})
	})
	journal := filepath.Join(dir, "journal-table4-1of1.jsonl")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	resumed := captureStdout(t, func() error {
		return run([]string{"-run", "table4", "-checkpoint-dir", dir, "-resume"})
	})
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if first != want || resumed != want {
		t.Errorf("checkpointed table differs from plain run:\n--- plain ---\n%s--- journaled ---\n%s--- resumed ---\n%s", want, first, resumed)
	}
	if string(after) != string(before) {
		t.Errorf("resuming a complete journal appended %d bytes", len(after)-len(before))
	}
}

func TestCheckpointFlagValidation(t *testing.T) {
	if err := run([]string{"-run", "table4", "-resume"}); err == nil {
		t.Error("-resume without -checkpoint-dir accepted")
	}
}

func TestRunCampaignExperimentsShortBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments; run without -short")
	}
	for _, args := range [][]string{
		{"-run", "table6", "-ablation", "30m"},
		{"-run", "fig12", "-fuzz", "30m", "-window", "400s"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "table99"}); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}

// TestScalingCLI drives -run scaling end to end at a tiny budget: the
// report file must gate cleanly against itself, and the printed table must
// carry the ranked bottleneck section.
func TestScalingCLI(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scaling.json")
	printed := captureStdout(t, func() error {
		return run([]string{"-run", "scaling", "-fuzz", "30m",
			"-scaling-workers", "1,2", "-scaling-out", out, "-git-sha", "test"})
	})
	for _, want := range []string{"Fleet scaling", "Ranked serialization sources"} {
		if !strings.Contains(printed, want) {
			t.Errorf("scaling output missing %q:\n%s", want, printed)
		}
	}
	// Re-run gating against the report just written: same workload, same
	// host, so efficiency cannot have regressed 10%.
	gated := captureStdout(t, func() error {
		return run([]string{"-run", "scaling", "-fuzz", "30m",
			"-scaling-workers", "1,2", "-scaling-baseline", out})
	})
	if !strings.Contains(gated, "scaling gate: efficiency within 10%") {
		t.Errorf("no gate confirmation in output:\n%s", gated)
	}
}

func TestScalingFlagValidation(t *testing.T) {
	if err := run([]string{"-run", "scaling", "-scaling-workers", "1,zero"}); err == nil {
		t.Error("bad -scaling-workers accepted")
	}
	if err := run([]string{"-run", "scaling", "-scaling-baseline", "/no/such/file.json"}); err == nil {
		t.Error("missing -scaling-baseline file accepted")
	}
}

// TestObsAddrFlag pins the -obs-addr pattern: the server binds before
// any experiment work, serves the unified endpoints, and a bad address is
// an immediate error instead of a swallowed goroutine print.
func TestObsAddrFlag(t *testing.T) {
	if err := run([]string{"-run", "fig1", "-obs-addr", "256.0.0.1:bad"}); err == nil {
		t.Fatal("bad -obs-addr accepted")
	}
	if err := run([]string{"-run", "fig1", "-obs-addr", "127.0.0.1:0"}); err != nil {
		t.Fatalf("-obs-addr with ephemeral port: %v", err)
	}
}

package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zcover/internal/obs"
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

// TestScalingCLI drives -run scaling end to end at a tiny budget and
// checks the CLI wiring, not the host: -scaling-out writes a report that
// LoadScalingReport reads back, and -scaling-baseline gates against a
// baseline whose top-point efficiency the test sets — 0.01 must pass and
// 100 must fail as a regression. A 0.15 s sweep is too short to tell a
// real efficiency drop from scheduler noise, so the gate is never asked
// to compare two measured sweeps.
func TestScalingCLI(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "scaling.json")
	sweep := []string{"-run", "scaling", "-fuzz", "30m", "-scaling-workers", "1,2"}
	printed := captureStdout(t, func() error {
		return run(append(sweep, "-scaling-out", out, "-git-sha", "test"))
	})
	for _, want := range []string{"Fleet scaling", "Ranked serialization sources"} {
		if !strings.Contains(printed, want) {
			t.Errorf("scaling output missing %q:\n%s", want, printed)
		}
	}
	rep, err := obs.LoadScalingReport(out)
	if err != nil {
		t.Fatalf("reading back -scaling-out: %v", err)
	}
	if len(rep.Points) == 0 || rep.Host.GitSHA != "test" {
		t.Fatalf("-scaling-out report: %d points, git sha %q", len(rep.Points), rep.Host.GitSHA)
	}

	// baseline writes rep with every point's efficiency set to eff, so the
	// top point CheckRegression compares against carries it too.
	baseline := func(name string, eff float64) string {
		b := *rep
		b.Points = append([]obs.ScalingPoint(nil), rep.Points...)
		for i := range b.Points {
			b.Points[i].Efficiency = eff
		}
		path := filepath.Join(dir, name)
		if err := b.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	low := baseline("low.json", 0.01)
	gated := captureStdout(t, func() error {
		return run(append(sweep, "-scaling-baseline", low))
	})
	if !strings.Contains(gated, "scaling gate: efficiency within 10%") {
		t.Errorf("no gate confirmation against a 0.01-efficiency baseline:\n%s", gated)
	}
	high := baseline("high.json", 100)
	var gateErr error
	captureStdout(t, func() error {
		gateErr = run(append(sweep, "-scaling-baseline", high))
		return nil
	})
	if gateErr == nil || !strings.Contains(gateErr.Error(), "regressed") {
		t.Errorf("gate against a 100-efficiency baseline returned %v, want a regression error", gateErr)
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

// TestTraceOutWritesTimeline drives -trace-out on a short Table V sweep:
// the file is one timeline snapshot in which all ten jobs have scan and
// fuzz intervals stamped on their testbed's sim clock, and the ZCover jobs
// a discover interval too.
func TestTraceOutWritesTimeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	captureStdout(t, func() error {
		return run([]string{"-run", "table5", "-fuzz", "10m", "-workers", "2", "-trace-out", path})
	})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("-trace-out is not one timeline snapshot: %v", err)
	}
	phases := map[string]map[string]bool{}
	for _, iv := range snap.Intervals {
		switch iv.Phase {
		case obs.PhaseScan, obs.PhaseDiscover, obs.PhaseFuzz:
			if iv.SimStart.IsZero() || iv.SimEnd.IsZero() || iv.SimDur() <= 0 {
				t.Errorf("%s/%s sim bounds %v → %v", iv.Job, iv.Phase, iv.SimStart, iv.SimEnd)
			}
			if phases[iv.Job] == nil {
				phases[iv.Job] = map[string]bool{}
			}
			phases[iv.Job][iv.Phase] = true
		}
	}
	if len(phases) != 10 {
		t.Fatalf("%d jobs with pipeline intervals, want 10: %v", len(phases), phases)
	}
	for job, seen := range phases {
		want := []string{obs.PhaseScan, obs.PhaseFuzz}
		if strings.HasSuffix(job, "/zcover") {
			want = append(want, obs.PhaseDiscover)
		}
		for _, phase := range want {
			if !seen[phase] {
				t.Errorf("job %s has no %s interval", job, phase)
			}
		}
	}
}

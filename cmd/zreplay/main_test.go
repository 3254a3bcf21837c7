package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/obs"
)

func TestHuntThenReplay(t *testing.T) {
	log := filepath.Join(t.TempDir(), "bugs.jsonl")
	if err := run([]string{"-hunt", "-target", "D1", "-duration", "20m", "-out", log}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(log); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-log", log}); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogReplay(t *testing.T) {
	if err := run([]string{"-catalog"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRequiresAMode(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("accepted no mode")
	}
	if err := run([]string{"-log", "/nonexistent/x.jsonl"}); err == nil {
		t.Fatal("accepted missing log file")
	}
}

func TestHuntMinimizeReplay(t *testing.T) {
	log := filepath.Join(t.TempDir(), "bugs.jsonl")
	if err := run([]string{"-hunt", "-target", "D4", "-duration", "15m", "-out", log}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-log", log, "-minimize"}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceSummary: -trace summarises a -trace-out timeline of a short
// Table V sweep (one line per phase interval, then attempts per job) and
// refuses a truncated file.
func TestTraceSummary(t *testing.T) {
	tl := obs.NewTimeline()
	if _, _, err := harness.Table5Fleet(10*time.Minute, fleet.Config{Workers: 2, Timeline: tl}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := tl.Snapshot().WriteFile(path); err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := run([]string{"-trace", path})
	os.Stdout = orig
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("-trace: %v", runErr)
	}
	for _, dev := range []string{"D1", "D2", "D3", "D4", "D5"} {
		for _, job := range []string{"table5/" + dev + "/vfuzz", "table5/" + dev + "/zcover"} {
			if !regexp.MustCompile(`(?m)^` + job + ` +fuzz +[0-9.]+s wall +10m[0-9.]*s sim$`).Match(out) {
				t.Errorf("no fuzz line for %s:\n%s", job, out)
			}
			if !regexp.MustCompile(`(?m)^` + job + ` +attempts 1$`).Match(out) {
				t.Errorf("no attempts line for %s:\n%s", job, out)
			}
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(truncated, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", truncated}); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

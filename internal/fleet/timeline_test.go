package fleet_test

import (
	"runtime"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/obs"
	"zcover/internal/testbed"
)

func TestEffectiveWorkersCapsAtGomaxprocs(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	cases := []struct {
		cfg  fleet.Config
		jobs int
		want int
	}{
		{fleet.Config{Workers: 1}, 14, 1},
		{fleet.Config{Workers: p + 7}, 14, min(p, 14)},
		{fleet.Config{Workers: 8}, 3, min(p, 3)},
		{fleet.Config{}, 14, min(p, 14)},
		{fleet.Config{Workers: 5}, 0, 1},
	}
	for _, c := range cases {
		if got := c.cfg.EffectiveWorkers(c.jobs); got != c.want {
			t.Errorf("EffectiveWorkers(%d) with %+v = %d, want %d", c.jobs, c.cfg, got, c.want)
		}
	}
}

// TestFleetRecordsTimeline runs a real fleet with a timeline attached and
// checks the fleet-level phase attribution: build and persist phases from
// the fleet itself, run for a runner that never reports pipeline phases,
// per-lane job counts covering all jobs, and sim stamps only on the phase
// that ran on the testbed.
func TestFleetRecordsTimeline(t *testing.T) {
	jobs := []fleet.Job{
		zcoverJob("a", "D1", 1),
		zcoverJob("b", "D2", 2),
		zcoverJob("c", "D3", 3),
	}
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (string, error) {
		time.Sleep(time.Millisecond)
		tb.Clock.Advance(time.Minute)
		return job.Name, nil
	}
	tl := obs.NewTimeline()
	var persisted int
	f := fleet.New(jobs, runner, fleet.Config{Workers: 1, Timeline: tl}).
		WithResume(
			func(i int, job fleet.Job) (string, bool) { return "", false },
			func(i int, job fleet.Job, res fleet.Result[string]) error { persisted++; return nil })
	if err := fleet.FirstError(f.Run()); err != nil {
		t.Fatal(err)
	}
	if persisted != len(jobs) {
		t.Fatalf("persisted %d jobs, want %d", persisted, len(jobs))
	}
	snap := tl.Snapshot()
	if len(snap.Workers) != 1 {
		t.Fatalf("lanes = %d, want 1", len(snap.Workers))
	}
	if snap.Workers[0].Jobs != len(jobs) {
		t.Errorf("lane saw %d jobs, want %d", snap.Workers[0].Jobs, len(jobs))
	}
	for _, phase := range []string{obs.PhaseBuild, obs.PhaseRun, obs.PhasePersist} {
		if _, ok := snap.PhaseWallSec[phase]; !ok {
			t.Errorf("phase %q missing from attribution: %v", phase, snap.PhaseWallSec)
		}
	}
	if snap.PhaseWallSec[obs.PhaseRun] <= 0 {
		t.Errorf("run phase wall = %v, want > 0", snap.PhaseWallSec[obs.PhaseRun])
	}
	for _, iv := range snap.Intervals {
		want := time.Duration(0)
		if iv.Phase == obs.PhaseRun {
			want = time.Minute
		}
		if iv.SimDur() != want {
			t.Errorf("%s/%s sim duration = %v, want %v", iv.Job, iv.Phase, iv.SimDur(), want)
		}
	}
}

// TestFleetNilTimeline pins that the default (no timeline) path still works
// with the phase hooks in place.
func TestFleetNilTimeline(t *testing.T) {
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		obs.Phase("fuzz") // must be a no-op, not a panic
		return 7, nil
	}
	results := fleet.Run([]fleet.Job{zcoverJob("a", "D1", 1)}, runner, fleet.Config{Workers: 1})
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}
	if results[0].Value != 7 {
		t.Fatalf("value = %d", results[0].Value)
	}
}

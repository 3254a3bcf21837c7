package fleet_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"zcover/internal/fleet"
	"zcover/internal/testbed"
)

// TestWithResumeServesCachedJobs: cached jobs must not execute (no
// testbed build, no runner call), must be marked Cached, and must not be
// re-persisted; fresh jobs must execute and persist exactly once.
func TestWithResumeServesCachedJobs(t *testing.T) {
	jobs := []fleet.Job{
		zcoverJob("a", "D1", 1), zcoverJob("b", "D2", 2), zcoverJob("c", "D3", 3),
	}
	ran := make(map[string]bool)
	var mu sync.Mutex
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (string, error) {
		mu.Lock()
		ran[job.Name] = true
		mu.Unlock()
		return "ran:" + job.Name, nil
	}
	persisted := make(map[int]string)
	f := fleet.New(jobs, runner, fleet.Config{Workers: 2}).WithResume(
		func(i int, job fleet.Job) (string, bool) {
			if job.Name == "b" {
				return "cached:b", true
			}
			return "", false
		},
		func(i int, job fleet.Job, res fleet.Result[string]) error {
			// persistMu serializes us; no lock needed.
			persisted[i] = res.Value
			return nil
		})
	results := f.Run()
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}
	if ran["b"] {
		t.Error("cached job executed anyway")
	}
	if !results[1].Cached || results[1].Value != "cached:b" || results[1].Attempts != 0 {
		t.Errorf("cached result = %+v", results[1])
	}
	if results[0].Cached || results[2].Cached {
		t.Error("fresh jobs marked cached")
	}
	if want := map[int]string{0: "ran:a", 2: "ran:c"}; !reflect.DeepEqual(persisted, want) {
		t.Errorf("persisted = %v, want %v", persisted, want)
	}
	p := f.Progress()
	if !p.Finished() || p.Done != 3 {
		t.Errorf("progress after cached run: %+v", p)
	}
}

// TestPersistFailureFailsJob: a journal that cannot be written must fail
// the job loudly, not report durable work that is not.
func TestPersistFailureFailsJob(t *testing.T) {
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		return 1, nil
	}
	f := fleet.New([]fleet.Job{zcoverJob("j", "D1", 1)}, runner, fleet.Config{Workers: 1}).
		WithResume(nil, func(i int, job fleet.Job, res fleet.Result[int]) error {
			return errors.New("disk full")
		})
	results := f.Run()
	if results[0].Err == nil {
		t.Fatal("persist failure swallowed")
	}
	if p := f.Progress(); p.Failed != 1 {
		t.Errorf("failed = %d, want 1", p.Failed)
	}
}

package obs_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"zcover/internal/obs"
)

// fakeClock is a deterministic timeline clock tests advance by hand.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestTimelinePhaseAttribution(t *testing.T) {
	clk := newFakeClock()
	tl := obs.NewTimeline()
	tl.SetNow(clk.now)

	sim := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	tl.StartWorker(0)
	clk.advance(2 * time.Second) // idle
	tl.Phase(0, "job-a", obs.PhaseBuild, time.Time{})
	clk.advance(1 * time.Second)
	tl.Phase(0, "job-a", obs.PhaseFuzz, sim)
	clk.advance(5 * time.Second)
	tl.SimEnd(0, sim.Add(10*time.Minute))
	tl.Phase(0, "", obs.PhaseIdle, time.Time{})
	clk.advance(3 * time.Second)
	tl.StopWorker(0)

	snap := tl.Snapshot()
	for _, iv := range snap.Intervals {
		want := time.Duration(0)
		if iv.Phase == obs.PhaseFuzz {
			want = 10 * time.Minute
		}
		if iv.SimDur() != want {
			t.Errorf("%s interval sim duration = %v, want %v", iv.Phase, iv.SimDur(), want)
		}
		if iv.Phase == obs.PhaseFuzz && !iv.SimStart.Equal(sim) {
			t.Errorf("fuzz sim start = %v, want %v", iv.SimStart, sim)
		}
	}
	if len(snap.Workers) != 1 {
		t.Fatalf("workers = %d, want 1", len(snap.Workers))
	}
	ws := snap.Workers[0]
	if ws.IdleSec != 5 {
		t.Errorf("IdleSec = %v, want 5", ws.IdleSec)
	}
	if ws.BusySec != 6 {
		t.Errorf("BusySec = %v, want 6", ws.BusySec)
	}
	if ws.Jobs != 1 {
		t.Errorf("Jobs = %d, want 1", ws.Jobs)
	}
	if got := snap.PhaseWallSec[obs.PhaseFuzz]; got != 5 {
		t.Errorf("fuzz wall = %v, want 5", got)
	}
	if got := snap.PhaseWallSec[obs.PhaseBuild]; got != 1 {
		t.Errorf("build wall = %v, want 1", got)
	}
	if got := ws.BusyShare(); got < 0.54 || got > 0.55 {
		t.Errorf("BusyShare = %v, want 6/11", got)
	}

}

func TestTimelineSnapshotTruncatesInFlight(t *testing.T) {
	clk := newFakeClock()
	tl := obs.NewTimeline()
	tl.SetNow(clk.now)

	tl.StartWorker(3)
	tl.Phase(3, "j", obs.PhaseScan, time.Time{})
	clk.advance(4 * time.Second)

	snap := tl.Snapshot() // scan interval still open
	if got := snap.PhaseWallSec[obs.PhaseScan]; got != 4 {
		t.Errorf("open interval truncated at %vs, want 4", got)
	}
	// The snapshot must not have closed the live interval: advancing and
	// snapping again extends the same stretch.
	clk.advance(2 * time.Second)
	snap = tl.Snapshot()
	if got := snap.PhaseWallSec[obs.PhaseScan]; got != 6 {
		t.Errorf("after more time, scan wall = %v, want 6", got)
	}
}

func TestTimelineNilSafe(t *testing.T) {
	var tl *obs.Timeline
	tl.StartWorker(0) // must not panic
	tl.Phase(0, "j", obs.PhaseFuzz, time.Now())
	tl.SimEnd(0, time.Now())
	tl.StopWorker(0)
	tl.SetNow(time.Now)
	snap := tl.Snapshot()
	if len(snap.Workers) != 0 || snap.WallSec() != 0 {
		t.Errorf("nil timeline snapshot not empty: %+v", snap)
	}
	if err := snap.WriteJSON(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineSnapshotJSONRoundTrip(t *testing.T) {
	clk := newFakeClock()
	tl := obs.NewTimeline()
	tl.SetNow(clk.now)
	sim := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	tl.StartWorker(0)
	tl.Phase(0, "job", obs.PhaseScan, sim)
	clk.advance(time.Second)
	tl.Phase(0, "job", obs.PhaseFuzz, sim.Add(2*time.Minute))
	tl.SimEnd(0, sim.Add(12*time.Minute))
	clk.advance(time.Second)
	tl.StopWorker(0)

	var b strings.Builder
	if err := tl.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(back.Intervals) != 3 { // idle (zero-length) + scan + fuzz
		t.Fatalf("round-tripped %d intervals, want 3", len(back.Intervals))
	}
	for i, want := range []time.Duration{0, 2 * time.Minute, 10 * time.Minute} {
		if got := back.Intervals[i].SimDur(); got != want {
			t.Errorf("interval %d (%s) sim duration = %v after round trip, want %v",
				i, back.Intervals[i].Phase, got, want)
		}
	}
}

// TestTimelineRace hammers concurrent recording and snapshotting; the
// -race build of `make verify` is the assertion.
func TestTimelineRace(t *testing.T) {
	tl := obs.NewTimeline()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl.StartWorker(w)
			for i := 0; i < 200; i++ {
				tl.Phase(w, "j", obs.PhaseFuzz, time.Time{})
				tl.Phase(w, "", obs.PhaseIdle, time.Time{})
			}
			tl.StopWorker(w)
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = tl.Snapshot()
		}
	}()
	wg.Wait()
	if got := len(tl.Snapshot().Workers); got != 4 {
		t.Errorf("lanes = %d, want 4", got)
	}
}

// Package obs is the campaign execution profiler: it shows where a
// fleet's wall time goes and which locks its workers wait on.
//
// The package layers three pieces on the telemetry registry from
// internal/telemetry:
//
//   - Worker timelines (Timeline): the repository's one span model.
//     Per-worker intervals attributed to campaign phases (testbed build,
//     scan, discovery, the fuzz loop, checkpoint persist, idle), each
//     stamped on the wall clock and, for phases that run on a testbed, on
//     its simulated clock too. Serialization shows up as idle gaps; phase
//     dominance shows up as wall share. -trace-out writes the final
//     snapshot; /timeline serves the live one.
//   - Contention capture (StartProfiling, SnapshotProfiles,
//     TopContendedLocks, SampleRuntimeMetrics): opt-in runtime mutex and
//     block profiling, pprof-format snapshots at campaign end, and
//     runtime/metrics samples (GC, goroutines, scheduler latency) folded
//     into the metrics registry.
//   - A unified observability HTTP server (Server): one mux serving
//     /debug/pprof, /metrics (Prometheus text from the registry),
//     /healthz, and /timeline (the live worker timeline as JSON) —
//     replacing the fire-and-forget pprof goroutines the CLIs used to
//     start.
//
// Determinism contract: nothing in this package is consulted by the
// simulation. Attaching a Timeline, enabling contention profiling, or
// serving the HTTP endpoints cannot change what a campaign finds — the
// experiment tables stay byte-identical with profiling on or off, at any
// worker count (pinned in internal/harness tests).
package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Phase names the fleet and harness attribute worker wall time to. A
// custom fleet runner that never reports phases has its whole run
// attributed to PhaseRun.
const (
	// PhaseIdle is time a worker spends without a job: waiting for work
	// at the queue, or drained at the end of a campaign. Idle gaps while
	// jobs remain queued are the signature of serialization.
	PhaseIdle = "idle"
	// PhaseBuild is per-attempt testbed construction (devices, pairing,
	// S2 key exchange), before the campaign proper starts.
	PhaseBuild = "build"
	// PhaseScan is phase 1 of the pipeline: passive fingerprinting.
	PhaseScan = "scan"
	// PhaseDiscover is phase 2: unknown-properties discovery.
	PhaseDiscover = "discover"
	// PhaseFuzz is phase 3: the fuzz loop, oracle grading included (the
	// oracle observes findings inline on the simulated timeline).
	PhaseFuzz = "fuzz"
	// PhasePersist is checkpoint journaling: encoding the outcome and the
	// fsync'd journal append, serialized across workers.
	PhasePersist = "persist"
	// PhaseRun is runner execution not otherwise attributed (custom
	// runners, or the slice between phases).
	PhaseRun = "run"
)

// Interval is one contiguous stretch of one worker's time spent in a
// single phase, stamped on both clocks.
type Interval struct {
	// Worker is the fleet worker lane (0-based).
	Worker int `json:"worker"`
	// Job labels the job being executed ("" for idle intervals).
	Job string `json:"job,omitempty"`
	// Phase is one of the Phase* constants (or a custom phase name).
	Phase string `json:"phase"`
	// Start and End bound the interval on the wall clock.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// SimStart and SimEnd bound the interval on the testbed's simulated
	// clock. Both are zero for phases with no testbed (idle, build,
	// persist); SimEnd is zero while the interval is in flight, or when
	// its attempt panicked before the runner returned.
	SimStart time.Time `json:"sim_start"`
	SimEnd   time.Time `json:"sim_end"`
}

// Dur returns the interval's wall-clock length.
func (iv Interval) Dur() time.Duration { return iv.End.Sub(iv.Start) }

// SimDur returns the interval's simulated length, zero unless both sim
// bounds are stamped.
func (iv Interval) SimDur() time.Duration {
	if iv.SimStart.IsZero() || iv.SimEnd.IsZero() {
		return 0
	}
	return iv.SimEnd.Sub(iv.SimStart)
}

// lane is one worker's recording state.
type lane struct {
	intervals []Interval
	open      Interval // open.Phase == "" means no interval in flight
}

// Timeline records per-worker phase intervals. All methods are safe for
// concurrent use and safe on a nil receiver (a nil *Timeline is a valid
// no-op recorder), so the fleet and harness call sites need no guards.
//
// Recording cost is one mutex acquisition per phase transition — a
// handful per job, nowhere near the per-frame hot path.
type Timeline struct {
	mu    sync.Mutex
	now   func() time.Time
	lanes map[int]*lane
	start time.Time
}

// NewTimeline returns an empty timeline on the wall clock.
func NewTimeline() *Timeline {
	return &Timeline{now: time.Now, lanes: map[int]*lane{}}
}

// SetNow overrides the timeline clock (tests). Not for concurrent use
// with recording.
func (t *Timeline) SetNow(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// StartWorker opens worker w's lane in the idle phase. The fleet calls it
// once per worker goroutine before the job loop.
func (t *Timeline) StartWorker(w int) {
	t.Phase(w, "", PhaseIdle, time.Time{})
}

// StopWorker closes worker w's open interval.
func (t *Timeline) StopWorker(w int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeOpen(t.lane(w), t.now(), time.Time{})
}

// Phase transitions worker w into the given phase of the given job,
// closing whatever interval was open. sim is the boundary's instant on the
// job's testbed clock: it ends the closing interval on the sim clock and
// starts the new one there. Pass the zero time for phases with no testbed
// (idle, build, persist), and job "" with PhaseIdle for between-job waits.
func (t *Timeline) Phase(w int, job, phase string, sim time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	if t.start.IsZero() || now.Before(t.start) {
		t.start = now
	}
	ln := t.lane(w)
	t.closeOpen(ln, now, sim)
	ln.open = Interval{Worker: w, Job: job, Phase: phase, Start: now, SimStart: sim}
}

// SimEnd ends worker w's open interval on the sim clock at sim, leaving
// its wall-clock end to the next transition. The testbed's owner calls it
// when the campaign returns, so the last pipeline phase gets a sim end.
func (t *Timeline) SimEnd(w int, sim time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ln := t.lane(w); !ln.open.SimStart.IsZero() {
		ln.open.SimEnd = sim
	}
}

// lane returns worker w's lane, creating it. Callers hold t.mu.
func (t *Timeline) lane(w int) *lane {
	ln, ok := t.lanes[w]
	if !ok {
		ln = &lane{}
		t.lanes[w] = ln
	}
	return ln
}

// closeOpen completes the lane's open interval at wall instant now and,
// unless SimEnd already stamped it, at sim on a testbed's clock. Callers
// hold t.mu.
func (t *Timeline) closeOpen(ln *lane, now, sim time.Time) {
	if ln.open.Phase == "" {
		return
	}
	ln.open.End = now
	if !ln.open.SimStart.IsZero() && ln.open.SimEnd.IsZero() {
		ln.open.SimEnd = sim
	}
	ln.intervals = append(ln.intervals, ln.open)
	ln.open = Interval{}
}

// WorkerStats is one worker's aggregate over a timeline snapshot.
type WorkerStats struct {
	// Worker is the lane index.
	Worker int `json:"worker"`
	// BusySec and IdleSec split the worker's recorded wall time.
	BusySec float64 `json:"busy_sec"`
	IdleSec float64 `json:"idle_sec"`
	// Jobs is how many distinct job labels the worker executed.
	Jobs int `json:"jobs"`
}

// BusyShare is the busy fraction of the worker's recorded time.
func (w WorkerStats) BusyShare() float64 {
	total := w.BusySec + w.IdleSec
	if total <= 0 {
		return 0
	}
	return w.BusySec / total
}

// Snapshot is a consistent copy of a timeline with aggregates.
type Snapshot struct {
	// Start is the earliest recorded instant.
	Start time.Time `json:"start"`
	// At is when the snapshot was taken.
	At time.Time `json:"at"`
	// Workers aggregates each lane, ordered by worker index.
	Workers []WorkerStats `json:"workers"`
	// PhaseWallSec is total wall time per phase, summed across workers.
	PhaseWallSec map[string]float64 `json:"phase_wall_sec"`
	// Intervals is every completed interval plus in-flight ones truncated
	// at the snapshot instant, ordered by worker then start time.
	Intervals []Interval `json:"intervals"`
}

// WallSec is the snapshot's elapsed wall clock (Start to At).
func (s Snapshot) WallSec() float64 {
	if s.Start.IsZero() {
		return 0
	}
	return s.At.Sub(s.Start).Seconds()
}

// Snapshot captures the timeline, truncating in-flight intervals at the
// current instant. Safe to call concurrently with recording (the
// /timeline endpoint does). A nil timeline yields a zero snapshot.
func (t *Timeline) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	snap := Snapshot{Start: t.start, At: now, PhaseWallSec: map[string]float64{}}
	workers := make([]int, 0, len(t.lanes))
	for w := range t.lanes {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, w := range workers {
		ln := t.lanes[w]
		ivs := append([]Interval(nil), ln.intervals...)
		if ln.open.Phase != "" {
			open := ln.open
			open.End = now
			ivs = append(ivs, open)
		}
		ws := WorkerStats{Worker: w}
		jobs := map[string]bool{}
		for _, iv := range ivs {
			sec := iv.Dur().Seconds()
			snap.PhaseWallSec[iv.Phase] += sec
			if iv.Phase == PhaseIdle {
				ws.IdleSec += sec
			} else {
				ws.BusySec += sec
				if iv.Job != "" {
					jobs[iv.Job] = true
				}
			}
		}
		ws.Jobs = len(jobs)
		snap.Workers = append(snap.Workers, ws)
		snap.Intervals = append(snap.Intervals, ivs...)
	}
	return snap
}

// WriteJSON renders the snapshot as one indented JSON document.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the snapshot to path as one JSON document (the
// -trace-out format).
func (s Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

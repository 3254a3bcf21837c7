package harness

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/obs"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// fullTelemetryConfig builds a fleet config with every telemetry attachment
// live: a shared registry, a worker timeline, and (via the process-wide
// knob) a flight recorder on every campaign testbed.
func fullTelemetryConfig(workers int, tl *obs.Timeline) fleet.Config {
	return fleet.Config{
		Workers:   workers,
		Telemetry: telemetry.NewRegistry(),
		Timeline:  tl,
	}
}

// pipelineSimSpans lists a timeline's pipeline intervals as sorted
// "job phase simStart simEnd" strings: the worker-count-independent part
// of the timeline.
func pipelineSimSpans(snap obs.Snapshot) []string {
	var out []string
	for _, iv := range snap.Intervals {
		switch iv.Phase {
		case obs.PhaseScan, obs.PhaseDiscover, obs.PhaseFuzz:
			out = append(out, fmt.Sprintf("%s %s %s %s", iv.Job, iv.Phase,
				iv.SimStart.Format(time.RFC3339Nano), iv.SimEnd.Format(time.RFC3339Nano)))
		}
	}
	slices.Sort(out)
	return out
}

// TestTable5ByteIdenticalWithTelemetryAcrossWorkers asserts the ISSUE's
// determinism hard constraint: enabling the whole observability stack —
// metrics registry, flight recorder, worker timeline — must not perturb
// Table V by a single byte, at any worker count, and the timeline's sim
// stamps must not depend on the worker count either.
func TestTable5ByteIdenticalWithTelemetryAcrossWorkers(t *testing.T) {
	baseTbl, _, err := Table5Fleet(fleetTestBudget, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	SetFleetRecorderDepth(telemetry.DefaultFlightDepth)
	defer SetFleetRecorderDepth(0)
	var baseSpans []string
	for _, workers := range []int{1, 8} {
		tl := obs.NewTimeline()
		tbl, _, err := Table5Fleet(fleetTestBudget, fullTelemetryConfig(workers, tl))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.String() != baseTbl.String() {
			t.Errorf("Table V with telemetry (workers=%d) differs from plain run:\n--- telemetry ---\n%s\n--- plain ---\n%s",
				workers, tbl.String(), baseTbl.String())
		}
		spans := pipelineSimSpans(tl.Snapshot())
		if len(spans) != 25 { // 5 × (scan, fuzz) VFuzz + 5 × (scan, discover, fuzz) ZCover
			t.Errorf("workers=%d: %d pipeline intervals, want 25", workers, len(spans))
		}
		if baseSpans == nil {
			baseSpans = spans
		} else if !slices.Equal(spans, baseSpans) {
			t.Errorf("workers=%d: pipeline sim stamps differ from workers=1:\n%s\n--- workers=1 ---\n%s",
				workers, strings.Join(spans, "\n"), strings.Join(baseSpans, "\n"))
		}
	}
}

func TestTable6ByteIdenticalWithTelemetryAcrossWorkers(t *testing.T) {
	baseTbl, _, err := Table6Fleet(fleetTestBudget, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	SetFleetRecorderDepth(telemetry.DefaultFlightDepth)
	defer SetFleetRecorderDepth(0)
	for _, workers := range []int{1, 8} {
		tbl, _, err := Table6Fleet(fleetTestBudget, fullTelemetryConfig(workers, obs.NewTimeline()))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.String() != baseTbl.String() {
			t.Errorf("Table VI with telemetry (workers=%d) differs from plain run:\n--- telemetry ---\n%s\n--- plain ---\n%s",
				workers, tbl.String(), baseTbl.String())
		}
	}
}

// TestFlightRecorderAttachesTracesToFindings asserts the other acceptance
// criterion: with a recorder attached, every finding of a campaign carries
// at least one captured frame, the snapshot survives the JSONL round trip,
// and the recorder is detached from the medium when the run ends.
func TestFlightRecorderAttachesTracesToFindings(t *testing.T) {
	tb, err := testbed.New("D1", 41)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunZCoverWith(tb, fuzz.StrategyFull, fleetTestBudget, 41, Options{
		FlightRecorderDepth: telemetry.DefaultFlightDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fuzz.Findings) == 0 {
		t.Fatal("campaign found nothing; cannot exercise traces")
	}
	for i, f := range c.Fuzz.Findings {
		if len(f.Trace) == 0 {
			t.Errorf("finding %d (%s) has no flight-recorder trace", i, f.Signature)
		}
	}

	var buf bytes.Buffer
	if err := fuzz.WriteLog(&buf, c.Fuzz); err != nil {
		t.Fatal(err)
	}
	entries, err := fuzz.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(c.Fuzz.Findings) {
		t.Fatalf("%d log entries for %d findings", len(entries), len(c.Fuzz.Findings))
	}
	for i, e := range entries {
		if len(e.Trace) != len(c.Fuzz.Findings[i].Trace) {
			t.Errorf("entry %d: %d trace frames in log, %d in finding", i, len(e.Trace), len(c.Fuzz.Findings[i].Trace))
		}
		for _, tf := range e.Trace {
			if _, err := tf.RawFrame(); err != nil {
				t.Errorf("entry %d: %v", i, err)
			}
		}
	}

	// The deferred detach must leave the medium clean for testbed reuse.
	plain, err := RunZCover(tb, fuzz.StrategyFull, time.Minute, 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range plain.Fuzz.Findings {
		if len(f.Trace) != 0 {
			t.Error("recorder leaked into a later campaign without one")
			break
		}
	}
}

// TestRecorderAndTracerDoNotPerturbFindings pins the observer-purity
// contract at single-campaign granularity: the same seed yields the same
// findings with and without every attachment enabled — a flight recorder,
// and a timeline stamped through OnPhase the way a testbed's owner does.
func TestRecorderAndTracerDoNotPerturbFindings(t *testing.T) {
	run := func(instrument bool) (*fuzz.Result, *obs.Timeline) {
		t.Helper()
		tb, err := testbed.New("D4", 7)
		if err != nil {
			t.Fatal(err)
		}
		var tl *obs.Timeline
		var opts Options
		if instrument {
			tl = obs.NewTimeline()
			opts = Options{
				FlightRecorderDepth: 32,
				OnPhase:             func(phase string) { tl.Phase(0, "D4", phase, tb.Clock.Now()) },
			}
		}
		c, err := RunZCoverWith(tb, fuzz.StrategyFull, fleetTestBudget, 7, opts)
		if err != nil {
			t.Fatal(err)
		}
		tl.SimEnd(0, tb.Clock.Now())
		return c.Fuzz, tl
	}

	plain, _ := run(false)
	traced, tl := run(true)

	if len(plain.Findings) != len(traced.Findings) {
		t.Fatalf("finding count changed: %d plain, %d instrumented", len(plain.Findings), len(traced.Findings))
	}
	for i := range plain.Findings {
		p, q := plain.Findings[i], traced.Findings[i]
		if p.Signature != q.Signature || p.Packets != q.Packets || p.Elapsed != q.Elapsed {
			t.Errorf("finding %d diverged: %s/%d/%v vs %s/%d/%v",
				i, p.Signature, p.Packets, p.Elapsed, q.Signature, q.Packets, q.Elapsed)
		}
	}
	if plain.PacketsSent != traced.PacketsSent {
		t.Errorf("packet count changed: %d vs %d", plain.PacketsSent, traced.PacketsSent)
	}

	var phases []string
	for _, iv := range tl.Snapshot().Intervals {
		phases = append(phases, iv.Phase)
		if iv.SimDur() <= 0 {
			t.Errorf("%s interval has non-positive sim duration (%v → %v)", iv.Phase, iv.SimStart, iv.SimEnd)
		}
	}
	if want := []string{"scan", "discover", "fuzz"}; !slices.Equal(phases, want) {
		t.Errorf("phases = %v, want %v", phases, want)
	}
}

package telemetry_test

import (
	"testing"

	"zcover/internal/telemetry"
	"zcover/internal/testbed"
)

// TestBackToBackTestbedsGetDisjointLanes pins the tentpole layout: two
// testbeds built one after the other (as two fleet workers build theirs)
// count through different lanes, and a hot counter's cells for those lanes
// do not share a cache line.
func TestBackToBackTestbedsGetDisjointLanes(t *testing.T) {
	a, err := testbed.New("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testbed.New("D2", 2)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := a.Medium.Lane(), b.Medium.Lane()
	if la == lb {
		t.Fatalf("both testbeds took lane %d", la)
	}
	if la == telemetry.SharedLane || lb == telemetry.SharedLane {
		t.Fatalf("a testbed took the shared lane: %d, %d", la, lb)
	}
	c := telemetry.Default().Counter("radio_tx_frames_total")
	d := int64(c.CellAddr(la)) - int64(c.CellAddr(lb))
	if d < 0 {
		d = -d
	}
	if d < 64 {
		t.Errorf("radio_tx_frames_total cells of lanes %d and %d are %d bytes apart, want >= 64", la, lb, d)
	}

	before := c.Load()
	if err := a.Lock.ReportStatus(); err != nil {
		t.Fatal(err)
	}
	if c.Load() <= before {
		t.Error("a transmission on the testbed's lane did not reach Load")
	}
}

package radio

import (
	"testing"

	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

// TestDetachedTransceiverDropsLateDelivery pins that a node detached
// before a transmission, or by an earlier receiver's callback in the
// middle of its fan-out, never observes the frame.
func TestDetachedTransceiverDropsLateDelivery(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	a := m.Attach("a", RegionUS)
	b := m.Attach("b", RegionUS)
	c := m.Attach("c", RegionUS)
	got := 0
	b.SetReceiver(func(Capture) { got++ })
	c.SetReceiver(func(Capture) { got++ })
	b.Detach()
	if err := a.Transmit([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("receivers saw %d frames, want 1 (c only)", got)
	}

	// d is a target of this transmission but is detached by c's callback
	// before its own turn comes.
	d := m.Attach("d", RegionUS)
	d.SetReceiver(func(Capture) { t.Fatal("d received a frame after being detached") })
	c.SetReceiver(func(Capture) { d.Detach() })
	if err := a.Transmit([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	if _, rx := d.Stats(); rx != 0 {
		t.Fatalf("detached d counted %d receptions", rx)
	}
}

func TestFlightRecorderCapturesTransmissions(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	rec := telemetry.NewFlightRecorder(4)
	m.SetFlightRecorder(rec)

	a := m.Attach("attacker", RegionUS)
	b := m.Attach("victim", RegionUS)
	b.SetReceiver(func(Capture) {})

	// A clear-text frame, then an S0- and an S2-encapsulated payload
	// (security class is read from the first payload byte at HeaderSize=9).
	clear := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x02, 0x41, 0x01, 0x0C, 0x01, 0x25, 0x01, 0xFF}
	s0 := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x02, 0x41, 0x01, 0x0C, 0x01, 0x98, 0x81, 0x00}
	s2 := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x02, 0x41, 0x01, 0x0C, 0x01, 0x9F, 0x03, 0x00}
	for _, raw := range [][]byte{clear, s0, s2} {
		if err := a.Transmit(raw); err != nil {
			t.Fatal(err)
		}
	}

	snap := rec.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("recorded %d frames, want 3", len(snap))
	}
	wantSec := []telemetry.SecurityClass{telemetry.SecurityNone, telemetry.SecurityS0, telemetry.SecurityS2}
	for i, fr := range snap {
		if fr.Security != wantSec[i] {
			t.Errorf("frame %d security = %q, want %q", i, fr.Security, wantSec[i])
		}
		if fr.From != "attacker" || fr.Targets != 1 || fr.Lost != 0 || fr.Corrupted != 0 {
			t.Errorf("frame %d verdict = %+v", i, fr)
		}
		if fr.Airtime != Airtime(len(clear)) {
			t.Errorf("frame %d airtime = %v, want %v", i, fr.Airtime, Airtime(len(clear)))
		}
		if fr.At.After(clock.Now().Add(Airtime(len(clear)))) {
			t.Errorf("frame %d timestamp %v is off the sim timeline", i, fr.At)
		}
	}

	// Loss injection shows up in the verdict.
	m.SetImpairments(1.0, 0, 42)
	if err := a.Transmit(clear); err != nil {
		t.Fatal(err)
	}
	snap = rec.Snapshot()
	last := snap[len(snap)-1]
	if last.Lost != 1 || last.Targets != 1 {
		t.Errorf("lossy frame verdict = %+v, want Lost=1 of Targets=1", last)
	}
}

package radio

import (
	"bytes"
	"testing"

	"zcover/internal/protocol"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

// TestRecorderUnaffectedByPooledDelivery drives the impaired delivery path
// (which serves receivers from pooled scratch copies) with a flight
// recorder attached, then keeps transmitting so the pool reuses those
// buffers. Earlier recorder snapshots must stay byte-identical — the
// recorder copies into ring-owned storage, so pooled-buffer reuse cannot
// reach it.
func TestRecorderUnaffectedByPooledDelivery(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	m.SetImpairments(0, 1.0, 42) // corrupt every frame: all deliveries pooled
	rec := telemetry.NewFlightRecorder(64)
	m.SetFlightRecorder(rec)
	tx := m.Attach("tx", RegionEU)
	rx := m.Attach("rx", RegionEU)
	rx.SetReceiver(func(Capture) {})

	first := []byte{0x10, 0x20, 0x30, 0x40, 0x50}
	if err := tx.Transmit(first); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	snap := rec.Snapshot()
	if len(snap) != 1 || !bytes.Equal(snap[0].Raw, first) {
		t.Fatalf("recorder holds %x, want the transmitted %x", snap[0].Raw, first)
	}

	// Churn the buffer pool: every transmit borrows and returns a pooled
	// corruption copy. The earlier snapshot must not move.
	for i := 0; i < 50; i++ {
		if err := tx.Transmit([]byte{0xEE, byte(i), 0xEE, byte(i)}); err != nil {
			t.Fatal(err)
		}
		clock.RunUntilIdle()
	}
	if !bytes.Equal(snap[0].Raw, first) {
		t.Fatalf("snapshot mutated by pooled-buffer reuse: %x", snap[0].Raw)
	}
}

// TestCorruptDeliveryIsPrivatePerReceiver checks that the pooled corrupt
// copy handed to one receiver is not visible to others and never leaks the
// corruption back into the transmitter's buffer.
func TestCorruptDeliveryIsPrivatePerReceiver(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	m.SetImpairments(0, 1.0, 7)
	tx := m.Attach("tx", RegionEU)
	raw := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]byte(nil), raw...)
	seen := make(map[string][]byte)
	for _, name := range []string{"a", "b"} {
		name := name
		r := m.Attach(name, RegionEU)
		r.SetReceiver(func(c Capture) {
			seen[name] = append([]byte(nil), c.Raw...)
		})
	}
	if err := tx.Transmit(raw); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if !bytes.Equal(raw, orig) {
		t.Fatalf("transmit buffer mutated by corruption path: %x", raw)
	}
	for name, got := range seen {
		if bytes.Equal(got, orig) {
			t.Fatalf("receiver %s saw uncorrupted frame under 100%% noise", name)
		}
		if len(got) != len(orig) {
			t.Fatalf("receiver %s frame length changed: %d", name, len(got))
		}
	}
}

// TestFreelistReentrantDelivery pins the freelist's reentrancy contract in
// the MAC-ack shape: receiver b decodes its capture into a recycled frame
// and, inside the callback, transmits an ack encoded into a recycled
// buffer. The nested transmission must draw its own buffer, corrupted
// copy, target list and frame, leaving the outer capture, the outer frame
// and the rest of the outer fan-out untouched. Run clean and with every
// delivery corrupted, so both the encode buffers and the medium's
// corrupted copies are exercised.
func TestFreelistReentrantDelivery(t *testing.T) {
	const home = protocol.HomeID(0xC0DECAFE)
	for _, noise := range []float64{0, 1} {
		clock := vtime.NewSimClock()
		m := NewMedium(clock)
		m.SetImpairments(0, noise, 5)
		fl := &m.free
		// Fill the freelist so every Get below pops a recycled entry.
		var warmB []*[]byte
		var warmF []*protocol.Frame
		for i := 0; i < 4; i++ {
			warmB, warmF = append(warmB, fl.GetBuf()), append(warmF, fl.GetFrame())
		}
		for i := range warmB {
			fl.PutBuf(warmB[i])
			fl.PutFrame(warmF[i])
		}

		// Attach order b, c, a: the outer transmission from a fans out to
		// [b c] and the nested one from b to [c a], so a nested pass that
		// reused the outer target list would redirect c's delivery to a.
		b := m.Attach("b", RegionEU)
		c := m.Attach("c", RegionEU)
		a := m.Attach("a", RegionEU)
		// One transmission before any receiver is installed leaves a
		// spare target list on the medium's stack.
		if err := a.Transmit([]byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
			t.Fatal(err)
		}
		var cGot [][]byte
		c.SetReceiver(func(cp Capture) { cGot = append(cGot, append([]byte(nil), cp.Raw...)) })

		var nestedRaw *byte
		var nestedFrame *protocol.Frame
		aGot := 0
		a.SetReceiver(func(cp Capture) {
			aGot++
			nestedRaw = &cp.Raw[0]
			nestedFrame = fl.GetFrame()
			_ = protocol.DecodeInto(nestedFrame, cp.Raw, protocol.ChecksumCS8)
			fl.PutFrame(nestedFrame)
		})

		ran := false
		b.SetReceiver(func(cp Capture) {
			ran = true
			outerRaw := append([]byte(nil), cp.Raw...)
			f := fl.GetFrame()
			decodeErr := protocol.DecodeInto(f, cp.Raw, protocol.ChecksumCS8)
			want, wantPayload := *f, append([]byte(nil), f.Payload...)

			buf := fl.GetBuf()
			ack, err := protocol.NewAckFrame(home, 2, 1, 7).AppendEncode(*buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Transmit(ack); err != nil {
				t.Fatal(err)
			}
			fl.PutBuf(buf)

			if !bytes.Equal(cp.Raw, outerRaw) {
				t.Errorf("noise=%v: outer capture changed by the nested delivery: %x, was %x", noise, cp.Raw, outerRaw)
			}
			if noise == 0 {
				if decodeErr != nil {
					t.Fatalf("outer decode: %v", decodeErr)
				}
				if f.Home != want.Home || f.Src != want.Src || f.Dst != want.Dst || f.Control != want.Control ||
					!bytes.Equal(f.Payload, wantPayload) {
					t.Errorf("outer frame changed by the nested delivery: %+v, was %+v", *f, want)
				}
			}
			if aGot != 1 {
				t.Fatalf("noise=%v: nested ack reached a %d times, want 1", noise, aGot)
			}
			if nestedRaw == &cp.Raw[0] {
				t.Errorf("noise=%v: nested capture shares the outer capture's buffer", noise)
			}
			if nestedFrame == f {
				t.Errorf("noise=%v: nested delivery decoded into the outer frame", noise)
			}
			fl.PutFrame(f)
			if f.Home != 0 || f.Src != 0 || f.Dst != 0 || f.Payload != nil || f.Control != (protocol.FrameControl{}) {
				t.Errorf("released frame not zeroed: %+v", *f)
			}
		})

		buf := fl.GetBuf()
		data, err := protocol.NewDataFrame(home, 1, 2, []byte{0x25, 0x01, 0xFF}).AppendEncode(*buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Transmit(data); err != nil {
			t.Fatal(err)
		}
		sent := append([]byte(nil), data...)
		fl.PutBuf(buf)
		clock.RunUntilIdle()

		if !ran {
			t.Fatalf("noise=%v: b never received the outer frame", noise)
		}
		if aGot != 1 {
			t.Errorf("noise=%v: a received %d frames, want only the nested ack", noise, aGot)
		}
		// c hears the nested ack first (it is sent mid-fan-out), then the
		// outer data frame.
		if len(cGot) != 2 || len(cGot[1]) != len(sent) {
			t.Fatalf("noise=%v: c received %d frames (%x), want the ack then the %d-byte data frame", noise, len(cGot), cGot, len(sent))
		}
		if noise == 0 && !bytes.Equal(cGot[1], sent) {
			t.Errorf("c received %x, want %x", cGot[1], sent)
		}
	}
}

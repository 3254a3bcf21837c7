package radio

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"zcover/internal/vtime"
)

// outcomes transmits n frames from "tx" and returns, per named receiver,
// the concatenated bytes it observed (lost frames leave gaps, corrupted
// frames differ) — a fingerprint of that receiver's impairment stream.
func outcomes(t *testing.T, receivers []string, n int, seed int64) map[string][][]byte {
	t.Helper()
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	got := make(map[string][][]byte)
	var mu sync.Mutex
	for _, name := range receivers {
		name := name
		r := m.Attach(name, RegionEU)
		r.SetReceiver(func(c Capture) {
			mu.Lock()
			got[name] = append(got[name], append([]byte(nil), c.Raw...))
			mu.Unlock()
		})
	}
	m.SetImpairments(0.3, 0.2, seed)
	for i := 0; i < n; i++ {
		frame := []byte{0xDE, 0xAD, byte(i), 0x01, 0x02, 0x03, 0x04, 0x0A, 0xBE, 0xEF}
		if err := tx.Transmit(frame); err != nil {
			t.Fatal(err)
		}
		clock.RunUntilIdle()
	}
	return got
}

// TestImpairmentStreamsPerReceiver is the regression test for the shared
// impairment RNG: a receiver's loss/noise outcomes must depend only on the
// seed and its own name, so attaching an unrelated transceiver (such as a
// chaos interceptor's observer, or a sniffer) cannot shift them.
func TestImpairmentStreamsPerReceiver(t *testing.T) {
	base := outcomes(t, []string{"a", "b"}, 200, 99)
	// Same seed, but with an extra receiver attached between a and b.
	more := outcomes(t, []string{"a", "extra", "b"}, 200, 99)
	for _, name := range []string{"a", "b"} {
		if !reflect.DeepEqual(base[name], more[name]) {
			t.Errorf("receiver %q outcomes shifted when %q attached: %d vs %d frames",
				name, "extra", len(base[name]), len(more[name]))
		}
	}
	// Different seed must actually change something.
	other := outcomes(t, []string{"a", "b"}, 200, 100)
	if reflect.DeepEqual(base["a"], other["a"]) && reflect.DeepEqual(base["b"], other["b"]) {
		t.Error("impairment outcomes identical across different seeds")
	}
}

// TestInterceptorPassthroughKeepsDelivery checks that an interceptor
// returning the frame unchanged with no delay is invisible to receivers.
func TestInterceptorPassthroughKeepsDelivery(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	rx := m.Attach("rx", RegionEU)
	var got []Capture
	rx.SetReceiver(func(c Capture) { got = append(got, c) })
	m.SetInterceptor(func(from, to string, raw []byte) []Delivery {
		if from != "tx" || to != "rx" {
			t.Errorf("interceptor saw link %s->%s", from, to)
		}
		return []Delivery{{Raw: raw}}
	})
	frame := []byte{1, 2, 3, 4, 5}
	if err := tx.Transmit(frame); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if len(got) != 1 || !bytes.Equal(got[0].Raw, frame) {
		t.Fatalf("passthrough delivery mangled: %v", got)
	}
}

// TestInterceptorDropDuplicateDelay exercises the three interceptor verbs:
// nil drops, two deliveries duplicate, and a positive delay arrives later
// on the simulated clock.
func TestInterceptorDropDuplicateDelay(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	rx := m.Attach("rx", RegionEU)
	var got []Capture
	rx.SetReceiver(func(c Capture) { got = append(got, c) })

	mode := "drop"
	m.SetInterceptor(func(from, to string, raw []byte) []Delivery {
		switch mode {
		case "drop":
			return nil
		case "dup":
			return []Delivery{{Raw: raw}, {Delay: 2 * time.Millisecond, Raw: raw}}
		default:
			return []Delivery{{Delay: 50 * time.Millisecond, Raw: raw}}
		}
	})

	frame := []byte{9, 9, 9}
	if err := tx.Transmit(frame); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if len(got) != 0 {
		t.Fatalf("dropped frame delivered: %v", got)
	}

	mode = "dup"
	if err := tx.Transmit(frame); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if len(got) != 2 {
		t.Fatalf("duplicate mode delivered %d frames, want 2", len(got))
	}
	if !got[1].At.After(got[0].At) {
		t.Errorf("duplicate copy not delayed: %v vs %v", got[0].At, got[1].At)
	}

	got = nil
	mode = "delay"
	start := clock.Now()
	if err := tx.Transmit(frame); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if len(got) != 1 {
		t.Fatalf("delayed frame count = %d, want 1", len(got))
	}
	if d := got[0].At.Sub(start); d < 50*time.Millisecond {
		t.Errorf("delayed delivery arrived after %v, want >= 50ms + airtime", d)
	}
}

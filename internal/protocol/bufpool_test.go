package protocol

import (
	"bytes"
	"testing"
)

// TestGetBufAppendEncodeRoundtrip pins the zero-alloc encode contract: a
// recycled buffer holds the encoded frame, DecodeInto parses it back into
// a recycled frame, and the decoded fields match the source. This is the
// exact shape of the device send path.
func TestGetBufAppendEncodeRoundtrip(t *testing.T) {
	var fl Freelist
	src := NewDataFrame(HomeID(0xC0DECAFE), 5, 9, []byte{0x25, 0x01, 0xFF})
	buf := fl.GetBuf()
	defer fl.PutBuf(buf)
	raw, err := src.AppendEncode(*buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(*buf) != 0 {
		t.Fatalf("AppendEncode must not store back into *buf, got len %d", len(*buf))
	}
	f := fl.GetFrame()
	defer fl.PutFrame(f)
	if err := DecodeInto(f, raw, ChecksumCS8); err != nil {
		t.Fatal(err)
	}
	if f.Home != src.Home || f.Src != src.Src || f.Dst != src.Dst {
		t.Fatalf("roundtrip mismatch: got %v want %v", f, src)
	}
	if !bytes.Equal(f.Payload, src.Payload) {
		t.Fatalf("payload mismatch: %x vs %x", f.Payload, src.Payload)
	}
}

// TestGetBufReturnsEmptyFullCapacity checks the Get contract: empty slice,
// MaxFrameSize capacity, even after a previous user left bytes in it.
func TestGetBufReturnsEmptyFullCapacity(t *testing.T) {
	var fl Freelist
	b := fl.GetBuf()
	*b = append(*b, 1, 2, 3)
	fl.PutBuf(b)
	got := fl.GetBuf()
	defer fl.PutBuf(got)
	if got != b {
		t.Fatal("GetBuf did not recycle the buffer just put back")
	}
	if len(*got) != 0 {
		t.Fatalf("GetBuf returned non-empty slice (len %d)", len(*got))
	}
	if cap(*got) < MaxFrameSize {
		t.Fatalf("GetBuf capacity %d < MaxFrameSize %d", cap(*got), MaxFrameSize)
	}
}

// TestPutBufRejectsShrunkBuffers: a buffer whose backing array was swapped
// for something smaller than MaxFrameSize must not re-enter the freelist,
// or a later AppendEncode into it would allocate mid-hot-path.
func TestPutBufRejectsShrunkBuffers(t *testing.T) {
	var fl Freelist
	small := make([]byte, 0, 4)
	fl.PutBuf(&small) // must be dropped, not recycled
	for i := 0; i < 64; i++ {
		b := fl.GetBuf()
		if cap(*b) < MaxFrameSize {
			t.Fatalf("undersized buffer (cap %d) leaked into the freelist", cap(*b))
		}
		fl.PutBuf(b)
	}
}

// TestPutFrameZeroes checks that recycled frames come back zeroed, from
// the process-wide pool and from a Freelist — a stale Payload alias would
// pin a raw buffer and leak one user's bytes to the next.
func TestPutFrameZeroes(t *testing.T) {
	var fl Freelist
	for _, p := range []struct {
		get func() *Frame
		put func(*Frame)
	}{{GetFrame, PutFrame}, {fl.GetFrame, fl.PutFrame}} {
		f := p.get()
		f.Home = 0xDEAD
		f.Payload = []byte{1, 2, 3}
		p.put(f)
		if f.Home != 0 || f.Payload != nil {
			t.Fatalf("released frame not zeroed: %+v", f)
		}
		g := p.get()
		if g.Home != 0 || g.Payload != nil || g.Src != 0 || g.Dst != 0 {
			t.Fatalf("recycled frame not zeroed: %+v", g)
		}
		p.put(g)
	}
}

// TestFreelistIsLIFO pins what reentrant callers rely on: entries held at
// once are distinct, and the most recently released one comes back first.
func TestFreelistIsLIFO(t *testing.T) {
	var fl Freelist
	b1, b2 := fl.GetBuf(), fl.GetBuf()
	f1, f2 := fl.GetFrame(), fl.GetFrame()
	if b1 == b2 || &(*b1)[:1][0] == &(*b2)[:1][0] || f1 == f2 {
		t.Fatal("entries held at once share storage")
	}
	fl.PutBuf(b1)
	fl.PutBuf(b2)
	fl.PutFrame(f1)
	fl.PutFrame(f2)
	if g1, g2 := fl.GetBuf(), fl.GetBuf(); g1 != b2 || g2 != b1 {
		t.Fatal("buffers not recycled last-in first-out")
	}
	if g1, g2 := fl.GetFrame(), fl.GetFrame(); g1 != f2 || g2 != f1 {
		t.Fatal("frames not recycled last-in first-out")
	}
}

// TestAppendEncodeIntoPrefixedBuffer checks the append contract when dst
// already holds bytes: the frame (and its checksum) must cover only the
// appended region, leaving the prefix intact.
func TestAppendEncodeIntoPrefixedBuffer(t *testing.T) {
	src := NewDataFrame(HomeID(0x11223344), 1, 2, []byte{0xAA})
	prefix := []byte{0xFE, 0xFD}
	out, err := src.AppendEncode(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:2], prefix) {
		t.Fatalf("prefix clobbered: %x", out[:2])
	}
	f := GetFrame()
	defer PutFrame(f)
	if err := DecodeInto(f, out[2:], ChecksumCS8); err != nil {
		t.Fatalf("suffix region does not decode standalone: %v", err)
	}
	if f.Home != src.Home {
		t.Fatalf("home mismatch: %08X", uint32(f.Home))
	}
}

// TestAppendEncodeErrorLeavesDstUnchanged pins the documented error
// contract: on ErrPayloadTooLarge the returned slice is dst, unmodified.
func TestAppendEncodeErrorLeavesDstUnchanged(t *testing.T) {
	f := NewDataFrame(HomeID(1), 1, 2, make([]byte, MaxFrameSize))
	dst := []byte{9, 9}
	out, err := f.AppendEncode(dst)
	if err == nil {
		t.Fatal("want ErrPayloadTooLarge")
	}
	if len(out) != 2 || out[0] != 9 || out[1] != 9 {
		t.Fatalf("dst modified on error: %x", out)
	}
}

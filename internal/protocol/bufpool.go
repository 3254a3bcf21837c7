package protocol

import "sync"

// Frame-buffer and frame-struct recycling for the per-frame hot path. A
// Table V campaign moves hundreds of thousands of frames through encode,
// the radio medium, and decode; recycling the two objects that dominate
// that loop — the 64-byte raw buffer and the parsed Frame — keeps the
// steady path free of garbage. The frame path recycles through the
// Freelist its testbed's radio medium owns, which takes no lock because
// one goroutine drives a testbed; GetFrame/PutFrame remain as a
// process-wide sync.Pool for decoders outside a testbed.

// Freelist recycles raw-frame buffers and parsed Frames for one testbed.
// It is not safe for concurrent use: the goroutine that drives the
// testbed owns it. Both lists are LIFO stacks, so reentrant use is safe —
// a handler that transmits inside a synchronous delivery pops an entry
// distinct from every one its callers still hold. An entry that is never
// put back (a panicking job) is simply collected with its testbed. The
// zero value is ready to use.
type Freelist struct {
	bufs   []*[]byte
	frames []*Frame
}

// GetBuf returns a buffer: *p is an empty slice with MaxFrameSize
// capacity. Append into *p (AppendEncode, copy) — frames never exceed
// MaxFrameSize, so appends stay within the backing array and *p need not
// be stored back. Release with PutBuf when the bytes are no longer
// referenced by anyone. The pointer form keeps Get/Put allocation-free
// (returning a bare slice would re-box its header on every Put).
func (l *Freelist) GetBuf() *[]byte {
	n := len(l.bufs)
	if n == 0 {
		b := make([]byte, 0, MaxFrameSize)
		return &b
	}
	p := l.bufs[n-1]
	l.bufs[n-1] = nil
	l.bufs = l.bufs[:n-1]
	*p = (*p)[:0]
	return p
}

// PutBuf returns a buffer obtained from GetBuf. The caller must guarantee
// nothing still aliases its backing array: a retained Capture,
// Frame.Payload, or log entry pointing into it becomes invalid the moment
// the buffer is reused. A buffer shrunk below MaxFrameSize is dropped, so
// a later AppendEncode into a recycled buffer never allocates.
func (l *Freelist) PutBuf(p *[]byte) {
	if cap(*p) < MaxFrameSize {
		return
	}
	l.bufs = append(l.bufs, p)
}

// GetFrame returns a zeroed Frame. Decode into it with DecodeInto and
// release it with PutFrame once dispatch returns. Handlers that want to
// keep a frame beyond the callback must deep-copy it (the Payload alias
// included).
func (l *Freelist) GetFrame() *Frame {
	n := len(l.frames)
	if n == 0 {
		return new(Frame)
	}
	f := l.frames[n-1]
	l.frames[n-1] = nil
	l.frames = l.frames[:n-1]
	return f
}

// PutFrame zeroes the frame (dropping its Payload alias so recycled
// frames never pin raw buffers) and returns it to the freelist.
func (l *Freelist) PutFrame(f *Frame) {
	*f = Frame{}
	l.frames = append(l.frames, f)
}

// framePool recycles parsed Frame structs for decode paths outside a
// testbed. It is safe for concurrent use.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// GetFrame returns a zeroed Frame from the process-wide pool; see
// Freelist.GetFrame for the contract.
func GetFrame() *Frame { return framePool.Get().(*Frame) }

// PutFrame zeroes the frame and returns it to the process-wide pool.
func PutFrame(f *Frame) {
	*f = Frame{}
	framePool.Put(f)
}

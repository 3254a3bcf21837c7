// Package radio simulates the sub-GHz Z-Wave air interface. It substitutes
// for the paper's hardware: the Yardstick One transceiver dongle, the
// 868/908 MHz RF band, and the physical placement of devices 10–70 m from
// the attacker.
//
// The medium is a shared broadcast domain per region (frequency). A
// transmission is delivered to every other attached transceiver tuned to
// the same region after the frame's airtime has elapsed on the simulated
// clock; receivers filter by home ID themselves, exactly as real Z-Wave
// chipsets do, which is what makes passive sniffing possible. Loss and
// noise can be injected for robustness testing; both default to off so
// campaigns are deterministic.
//
// # Ownership and buffer lifetimes
//
// Medium and Transceiver are not safe for concurrent use and take no
// locks: one goroutine drives a testbed (the rule is written down in
// package testbed), and each campaign in a fleet runs its own Medium.
// Everything per-frame is per-Medium: the telemetry lane every count goes
// through, the stack of spare target lists, and the Freelist of frame
// buffers and decoded frames that the medium, its nodes, the attacker
// dongle and the IDS monitor recycle. Two campaigns on two goroutines
// therefore share no per-frame state. Frame delivery is synchronous and zero-copy: the
// Capture handed to a receiver callback aliases the transmitter's buffer
// (or a recycled scratch copy on impaired paths) and is valid only for
// the duration of the callback. Receiver callbacks must not mutate
// Capture.Raw and must copy it before retaining it. A callback may
// transmit (a MAC ack does): the nested transmission draws its own
// buffers and target list, leaving the outer ones untouched. The
// interceptor hook is the exception to the aliasing rule — it receives a
// private copy it may mutate or retain, as documented on InterceptFunc.
package radio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

// Process-wide air-interface metrics. Handles resolve once at init; the
// per-frame cost is a handful of lock-free atomic adds into the medium's
// telemetry lane.
var (
	mTxFrames  = telemetry.Default().Counter("radio_tx_frames_total")
	mRxFrames  = telemetry.Default().Counter("radio_rx_frames_total")
	mLost      = telemetry.Default().Counter("radio_frames_lost_total")
	mCorrupted = telemetry.Default().Counter("radio_frames_corrupted_total")
	mTooLong   = telemetry.Default().Counter("radio_frames_too_long_total")
	mAirtime   = telemetry.Default().Histogram("radio_airtime_ms", 2, 3, 4, 5, 6, 7, 8)
)

// Region selects the regional RF profile (ITU-T G.9959 regional annexes).
type Region int

// Supported regions. Enum starts at 1.
const (
	// RegionEU is the 868.42 MHz European profile.
	RegionEU Region = iota + 1
	// RegionUS is the 908.42 MHz North-American profile.
	RegionUS
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionEU:
		return "EU 868.42 MHz"
	case RegionUS:
		return "US 908.42 MHz"
	default:
		return "Region(" + strconv.Itoa(int(r)) + ")"
	}
}

// Air-interface timing constants for the R3 (100 kbit/s) data rate.
const (
	// bitsPerByte includes line coding overhead.
	bitsPerByte = 8
	// DataRateBitsPerSec is the R3 PHY rate.
	DataRateBitsPerSec = 100_000
	// PreambleBytes covers preamble and start-of-frame delimiter.
	PreambleBytes = 10
	// TurnaroundTime is the RX/TX switch time added to every transmission.
	TurnaroundTime = 1 * time.Millisecond
)

// Airtime computes how long a raw frame occupies the medium.
func Airtime(frameLen int) time.Duration {
	bits := (frameLen + PreambleBytes) * bitsPerByte
	return TurnaroundTime + time.Duration(bits)*time.Second/DataRateBitsPerSec
}

// Medium errors.
var (
	// ErrFrameTooLong rejects transmissions above the MAC limit.
	ErrFrameTooLong = errors.New("radio: frame exceeds MAC limit")
	// ErrDetached rejects use of a transceiver after Detach.
	ErrDetached = errors.New("radio: transceiver detached")
)

// Capture is one frame observed on the air, with its receive timestamp.
type Capture struct {
	// At is the simulated instant the frame finished arriving.
	At time.Time
	// Raw is the frame bytes as received. The slice is owned by the medium
	// and valid only for the duration of the receiver callback: on the
	// clean path it aliases the transmitter's buffer, and on impaired paths
	// it aliases a recycled scratch copy. Receivers must not mutate it, and
	// must copy it before retaining it past the callback (Sniffer and the
	// attacker dongle both do).
	Raw []byte
}

// Delivery is one frame instance an interceptor wants delivered to a
// receiver: the (possibly rewritten) bytes plus an extra delay beyond the
// frame's airtime. A zero delay delivers inline, exactly like the
// unintercepted path.
type Delivery struct {
	// Delay is added on top of the airtime before the frame arrives.
	Delay time.Duration
	// Raw is the frame as the receiver will see it. It may alias the
	// interceptor's input slice.
	Raw []byte
}

// InterceptFunc sees every frame en route from one transceiver to another
// (after the medium's own loss/noise impairments) and decides what the
// receiver observes: return nil to drop the frame, one Delivery to pass or
// rewrite it, or several to duplicate it. The input slice is a private
// copy; the interceptor may mutate or retain it. Interceptors run on the
// goroutine that drives the medium and may transmit themselves.
type InterceptFunc func(from, to string, raw []byte) []Delivery

// Medium is the shared simulated air. Construct with NewMedium. A Medium
// and everything attached to it belong to the one goroutine driving its
// testbed; it is not safe for concurrent use.
type Medium struct {
	clock *vtime.SimClock
	// lane is the telemetry lane every per-frame count of this medium's
	// testbed goes through (see Lane).
	lane telemetry.Lane
	// free recycles frame buffers and decoded frames for everything on
	// this medium (see Transceiver.Freelist).
	free protocol.Freelist
	// targets is a LIFO stack of spare per-transmission target lists; a
	// transmission nested inside a delivery pops its own.
	targets [][]*Transceiver

	nodes     []*Transceiver
	lossP     float64
	noiseP    float64
	impSeed   int64
	streams   map[string]*rand.Rand
	intercept InterceptFunc
	txLog     int
	rangeLim  float64
	recorder  *telemetry.FlightRecorder
}

// NewMedium creates an empty air over the given simulated clock.
func NewMedium(clock *vtime.SimClock) *Medium {
	if clock == nil {
		panic("radio: NewMedium requires a clock")
	}
	return &Medium{clock: clock, lane: telemetry.NextLane(), impSeed: 1}
}

// Clock exposes the medium's simulated clock.
func (m *Medium) Clock() *vtime.SimClock { return m.clock }

// Lane is the telemetry lane the medium took at construction. One medium
// is one testbed, so the nodes, dongle, interceptor and fuzz engine on it
// count their per-frame metrics through this lane too.
func (m *Medium) Lane() telemetry.Lane { return m.lane }

// SetImpairments configures random frame loss and single-byte noise
// corruption probabilities (both in [0,1]) with a deterministic seed.
// Impairments default to zero. Each receiver draws from its own stream
// seeded from (seed, receiver name), so one transceiver's packet outcomes
// are independent of which other transceivers are attached and of target
// iteration order.
func (m *Medium) SetImpairments(lossP, noiseP float64, seed int64) {
	m.lossP, m.noiseP = lossP, noiseP
	m.impSeed = seed
	m.streams = nil
}

// SetInterceptor installs a frame interceptor pipeline stage (nil removes
// it). The chaos fault injector composes onto the medium through this hook.
func (m *Medium) SetInterceptor(fn InterceptFunc) {
	m.intercept = fn
}

// stream returns the impairment RNG for the named receiver, creating it on
// first use.
func (m *Medium) stream(name string) *rand.Rand {
	s, ok := m.streams[name]
	if !ok {
		if m.streams == nil {
			m.streams = make(map[string]*rand.Rand)
		}
		s = rand.New(rand.NewSource(m.impSeed ^ int64(fnv64a(name))))
		m.streams[name] = s
	}
	return s
}

// fnv64a is the FNV-1a hash, used to derive per-receiver seeds.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// SetRange enables the geometric propagation model: transmissions reach
// only transceivers within r metres of the sender. Transceivers without an
// assigned position are treated as always in range (back-compatible
// default for sniffers and tests). Zero disables the model.
func (m *Medium) SetRange(r float64) {
	m.rangeLim = r
}

// SetFlightRecorder attaches a packet flight recorder: every transmission
// is recorded with its raw bytes, airtime, security class, and delivery
// verdict. Nil detaches. The recorder is the post-mortem channel findings
// dump alongside their log entries.
func (m *Medium) SetFlightRecorder(rec *telemetry.FlightRecorder) {
	m.recorder = rec
}

// TransmitCount reports how many frames have been put on the air in total.
func (m *Medium) TransmitCount() int { return m.txLog }

// Attach adds a transceiver tuned to the given region. The name appears in
// diagnostics only.
func (m *Medium) Attach(name string, region Region) *Transceiver {
	t := &Transceiver{medium: m, name: name, region: region}
	m.nodes = append(m.nodes, t)
	return t
}

// transmit delivers raw to all other transceivers in region.
//
// Delivery is synchronous and zero-copy on the clean path: receivers get a
// Capture whose Raw aliases the transmitter's buffer (see Capture.Raw for
// the ownership contract). Impaired copies are drawn from the medium's
// freelist and returned after the callback; only the interceptor path
// makes a plain copy, because InterceptFunc is documented as free to
// mutate and retain its input. The target list comes off the medium's
// stack too, so a receiver that transmits from its callback gets its own.
func (m *Medium) transmit(from *Transceiver, raw []byte) error {
	if len(raw) > protocol.MaxFrameSize {
		mTooLong.IncLane(m.lane)
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLong, len(raw))
	}
	m.txLog++
	var targets []*Transceiver
	if n := len(m.targets); n > 0 {
		targets = m.targets[n-1]
		m.targets[n-1] = nil
		m.targets = m.targets[:n-1]
	}
	for _, t := range m.nodes {
		if t != from && t.region == from.region && !t.detached && m.inRange(from, t) {
			targets = append(targets, t)
		}
	}
	lossP, noiseP := m.lossP, m.noiseP
	// Each receiver's loss/noise outcomes come from its own seeded stream,
	// drawn in a fixed per-frame order (loss, noise, then corruption
	// position only when corrupting), so attaching or detaching other
	// transceivers never shifts an existing receiver's draw sequence.
	type impairPlan struct {
		lost     bool
		corrupt  bool
		noiseIdx int
		noiseBit byte
	}
	var plans []impairPlan
	if lossP > 0 || noiseP > 0 {
		plans = make([]impairPlan, len(targets))
		for i, t := range targets {
			s := m.stream(t.name)
			p := &plans[i]
			p.lost = lossP > 0 && s.Float64() < lossP
			noisy := noiseP > 0 && s.Float64() < noiseP
			if noisy && !p.lost && len(raw) > 0 {
				p.corrupt = true
				p.noiseIdx = s.Intn(len(raw))
				p.noiseBit = 1 << s.Intn(8)
			}
		}
	}
	intercept := m.intercept
	recorder := m.recorder

	airtime := Airtime(len(raw))
	mTxFrames.IncLane(m.lane)
	mAirtime.ObserveLane(m.lane, float64(airtime)/float64(time.Millisecond))

	at := m.clock.Now().Add(airtime)
	lost, corrupted := 0, 0
	for i, t := range targets {
		if plans != nil && plans[i].lost {
			lost++
			continue
		}
		corrupt := plans != nil && plans[i].corrupt
		if corrupt {
			corrupted++
		}
		if intercept == nil {
			if !corrupt {
				t.deliver(Capture{At: at, Raw: raw})
				continue
			}
			// Corruption needs a private copy; borrow it from the
			// freelist and return it once the synchronous delivery is
			// done.
			buf := m.free.GetBuf()
			*buf = append(*buf, raw...)
			(*buf)[plans[i].noiseIdx] ^= plans[i].noiseBit
			t.deliver(Capture{At: at, Raw: *buf})
			m.free.PutBuf(buf)
			continue
		}
		// The interceptor may mutate or retain its input, so it gets a
		// plain (unrecycled) copy; corruption is applied directly to it.
		icopy := make([]byte, len(raw))
		copy(icopy, raw)
		if corrupt {
			icopy[plans[i].noiseIdx] ^= plans[i].noiseBit
		}
		deliveries := intercept(from.name, t.name, icopy)
		if len(deliveries) == 0 {
			lost++
			continue
		}
		for _, d := range deliveries {
			if !bytes.Equal(d.Raw, icopy) {
				corrupted++
			}
			if d.Delay <= 0 {
				t.deliver(Capture{At: at, Raw: d.Raw})
				continue
			}
			t, d := t, d
			m.clock.Schedule(airtime+d.Delay, func() {
				t.deliver(Capture{At: at.Add(d.Delay), Raw: d.Raw})
			})
		}
	}
	nTargets := len(targets)
	clear(targets)
	m.targets = append(m.targets, targets[:0])
	if lost > 0 {
		mLost.AddLane(m.lane, int64(lost))
	}
	if corrupted > 0 {
		mCorrupted.AddLane(m.lane, int64(corrupted))
	}
	if recorder != nil {
		// Record copies raw into ring-owned storage, so no pre-copy here.
		recorder.Record(telemetry.FrameRecord{
			At:        at,
			From:      from.name,
			Raw:       raw,
			Airtime:   airtime,
			Security:  securityClassOf(raw),
			Targets:   nTargets,
			Lost:      lost,
			Corrupted: corrupted,
		})
	}
	m.clock.Schedule(airtime, func() {})
	return nil
}

// securityClassOf classifies a raw frame's transport encapsulation by its
// first application-payload byte (S0 = CMDCL 0x98, S2 = CMDCL 0x9F).
func securityClassOf(raw []byte) telemetry.SecurityClass {
	if len(raw) <= protocol.HeaderSize {
		return telemetry.SecurityNone
	}
	switch raw[protocol.HeaderSize] {
	case 0x98:
		return telemetry.SecurityS0
	case 0x9F:
		return telemetry.SecurityS2
	default:
		return telemetry.SecurityNone
	}
}

// inRange applies the propagation model.
func (m *Medium) inRange(a, b *Transceiver) bool {
	if m.rangeLim <= 0 || !a.placed || !b.placed {
		return true
	}
	dx, dy := a.x-b.x, a.y-b.y
	return dx*dx+dy*dy <= m.rangeLim*m.rangeLim
}

// Transceiver is one radio endpoint: a device chipset, the attacker's
// dongle, or a passive sniffer. Like its Medium it belongs to the
// goroutine driving the testbed and is not safe for concurrent use.
type Transceiver struct {
	medium   *Medium
	name     string
	region   Region
	detached bool
	x, y     float64
	placed   bool
	handler  func(Capture)
	txCount  int
	rxCount  int
}

// Name reports the diagnostic name given at Attach.
func (t *Transceiver) Name() string { return t.name }

// Region reports the RF region the transceiver is tuned to.
func (t *Transceiver) Region() Region { return t.region }

// Lane reports the telemetry lane of the transceiver's medium.
func (t *Transceiver) Lane() telemetry.Lane { return t.medium.lane }

// Freelist is the frame-buffer and frame-struct freelist of the
// transceiver's medium. One medium is one testbed, so its nodes, dongle
// and IDS monitor encode and decode through it without locks.
func (t *Transceiver) Freelist() *protocol.Freelist { return &t.medium.free }

// SetReceiver installs the frame-delivery callback. Passing nil silences
// the transceiver (frames still count as received).
func (t *Transceiver) SetReceiver(fn func(Capture)) {
	t.handler = fn
}

// Transmit puts a raw frame on the air.
func (t *Transceiver) Transmit(raw []byte) error {
	if t.detached {
		return ErrDetached
	}
	t.txCount++
	return t.medium.transmit(t, raw)
}

// Detach removes the transceiver from the air; it no longer receives and
// can no longer transmit. Detaching from a receiver callback mid-fan-out
// stops delivery to it for the rest of that transmission.
func (t *Transceiver) Detach() { t.detached = true }

// Place assigns the transceiver a position (metres) for the geometric
// propagation model. Unplaced transceivers are always in range.
func (t *Transceiver) Place(x, y float64) {
	t.x, t.y, t.placed = x, y, true
}

// Stats reports frames transmitted and received by this transceiver.
func (t *Transceiver) Stats() (tx, rx int) {
	return t.txCount, t.rxCount
}

// deliver hands a capture to the installed handler. A transceiver detached
// after target selection drops the frame instead of delivering late.
func (t *Transceiver) deliver(c Capture) {
	if t.detached {
		return
	}
	t.rxCount++
	mRxFrames.IncLane(t.medium.lane)
	if t.handler != nil {
		t.handler(c)
	}
}

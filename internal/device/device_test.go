package device

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/security"
	"zcover/internal/vtime"
)

const testHome protocol.HomeID = 0xCB95A34A

func newTestbed(t *testing.T) (*radio.Medium, *Node) {
	t.Helper()
	m := radio.NewMedium(vtime.NewSimClock())
	hub := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x01, Name: "hub"})
	return m, hub
}

func TestIdentityNIFRoundTrip(t *testing.T) {
	id := Identity{
		Basic: BasicTypeSlave, Generic: GenericTypeEntryControl, Specific: 0x03,
		Capability: CapRouting, Security: SecS2,
		Classes: []cmdclass.ClassID{cmdclass.ClassBasic, cmdclass.ClassDoorLock},
	}
	got, ok := ParseNIF(id.NIFPayload())
	if !ok {
		t.Fatal("ParseNIF rejected own payload")
	}
	if got.Basic != id.Basic || got.Generic != id.Generic || got.Specific != id.Specific ||
		got.Capability != id.Capability || got.Security != id.Security {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, id)
	}
	if len(got.Classes) != 2 || got.Classes[1] != cmdclass.ClassDoorLock {
		t.Fatalf("classes = %v", got.Classes)
	}
}

func TestParseNIFRejectsGarbage(t *testing.T) {
	for _, payload := range [][]byte{nil, {0x01}, {0x01, 0x01, 0, 0}, {0x20, 0x01, 0, 0, 0, 0, 0, 0}} {
		if _, ok := ParseNIF(payload); ok {
			t.Errorf("ParseNIF accepted % X", payload)
		}
	}
}

func TestIsNIFRequest(t *testing.T) {
	if id, ok := IsNIFRequest(NIFRequestPayload(0x07)); !ok || id != 0x07 {
		t.Fatalf("IsNIFRequest = %v %v", id, ok)
	}
	if _, ok := IsNIFRequest([]byte{0x01, 0x0D, 0x02}); ok {
		t.Fatal("non-request payload accepted")
	}
	if id, ok := IsNIFRequest([]byte{0x01, 0x02}); !ok || id != 0 {
		t.Fatal("target-less request should parse with target 0")
	}
}

func TestNodeFiltersForeignHomeID(t *testing.T) {
	m, hub := newTestbed(t)
	got := 0
	hub.Handler = func(*protocol.Frame) { got++ }
	foreign := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: 0xDEADBEEF, ID: 0x02, Name: "foreign"})
	if err := foreign.Send(0x01, []byte{0x20, 0x02}); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("frame from foreign home ID dispatched")
	}
}

func TestNodeFiltersOtherDestination(t *testing.T) {
	m, hub := newTestbed(t)
	got := 0
	hub.Handler = func(*protocol.Frame) { got++ }
	peer := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "peer"})
	if err := peer.Send(0x09, []byte{0x20, 0x02}); err != nil { // not for hub
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("frame for another node dispatched")
	}
	if err := peer.Send(protocol.NodeBroadcast, []byte{0x20, 0x02}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatal("broadcast frame not dispatched")
	}
}

func TestNodeSendsMACAck(t *testing.T) {
	m, hub := newTestbed(t)
	hub.Handler = func(*protocol.Frame) {}
	peer := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "peer"})
	acked := 0
	peer.OnAck = func(*protocol.Frame) { acked++ }
	if err := peer.Send(0x01, NOPPayload()); err != nil {
		t.Fatal(err)
	}
	if acked != 1 {
		t.Fatalf("acks received = %d, want 1", acked)
	}
}

// TestHandlerReplyLeavesOuterFrameIntact drives the MAC receive path
// reentrantly: the hub's Handler replies from inside the callback, and the
// reply's synchronous delivery makes the peer decode it and MAC-ack back
// to the hub. Every nested level pops its own buffer and frame from the
// medium's freelist, so the frame the hub's Handler holds — whose payload
// aliases the peer's recycled encode buffer — must read the same after
// the reply returns, and the peer must see the reply intact.
func TestHandlerReplyLeavesOuterFrameIntact(t *testing.T) {
	m, hub := newTestbed(t)
	peer := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "peer"})
	request := []byte{0x25, 0x02}
	reply := []byte{0x25, 0x03, 0xFF}

	var replies [][]byte
	peer.Handler = func(f *protocol.Frame) { replies = append(replies, append([]byte(nil), f.Payload...)) }
	peerAcks, hubAcks := 0, 0
	peer.OnAck = func(*protocol.Frame) { peerAcks++ }
	hub.OnAck = func(*protocol.Frame) { hubAcks++ }

	calls := 0
	hub.Handler = func(f *protocol.Frame) {
		calls++
		want, wantPayload := *f, append([]byte(nil), f.Payload...)
		if err := hub.Send(0x02, reply); err != nil {
			t.Fatal(err)
		}
		if f.Src != want.Src || f.Dst != want.Dst || f.Home != want.Home || f.Control != want.Control ||
			!bytes.Equal(f.Payload, wantPayload) {
			t.Errorf("outer frame changed by the nested reply: %+v %x, was %+v %x", *f, f.Payload, want, wantPayload)
		}
		if !bytes.Equal(f.Payload, request) {
			t.Errorf("outer payload = %x, want %x", f.Payload, request)
		}
	}
	// Two rounds, so the second runs entirely on recycled entries.
	for round := 0; round < 2; round++ {
		if err := peer.Send(0x01, request); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 || peerAcks != 2 || hubAcks != 2 {
		t.Fatalf("calls=%d peerAcks=%d hubAcks=%d, want 2 each", calls, peerAcks, hubAcks)
	}
	for _, got := range replies {
		if !bytes.Equal(got, reply) {
			t.Errorf("peer received reply %x, want %x", got, reply)
		}
	}
	if len(replies) != 2 {
		t.Fatalf("peer received %d replies, want 2", len(replies))
	}
}

func TestNodeGateSuppressesAckAndDispatch(t *testing.T) {
	m, hub := newTestbed(t)
	dispatched := 0
	hub.Handler = func(*protocol.Frame) { dispatched++ }
	alive := false
	hub.Gate = func() bool { return alive }

	peer := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "peer"})
	acked := 0
	peer.OnAck = func(*protocol.Frame) { acked++ }

	if err := peer.Send(0x01, NOPPayload()); err != nil {
		t.Fatal(err)
	}
	if acked != 0 || dispatched != 0 {
		t.Fatal("gated node responded")
	}
	alive = true
	if err := peer.Send(0x01, NOPPayload()); err != nil {
		t.Fatal(err)
	}
	if acked != 1 || dispatched != 1 {
		t.Fatalf("ungated node: acked=%d dispatched=%d", acked, dispatched)
	}
}

func TestNodeRawHookConsumesFrames(t *testing.T) {
	m, hub := newTestbed(t)
	dispatched := 0
	hub.Handler = func(*protocol.Frame) { dispatched++ }
	raws := 0
	hub.RawHook = func(raw []byte) bool { raws++; return true }
	peer := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "peer"})
	if err := peer.Send(0x01, NOPPayload()); err != nil {
		t.Fatal(err)
	}
	if raws != 1 || dispatched != 0 {
		t.Fatalf("raws=%d dispatched=%d", raws, dispatched)
	}
}

func TestPairS2EstablishesInteroperableSessions(t *testing.T) {
	p, err := PairS2(rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.NetworkKey) != security.KeySize {
		t.Fatalf("network key = %d bytes", len(p.NetworkKey))
	}
	aad := []byte("hdr")
	encap, err := p.ControllerSession.Encapsulate(security.FlowAtoB, aad, []byte("lock"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.DeviceSession.Decapsulate(security.FlowAtoB, aad, encap)
	if err != nil || string(got) != "lock" {
		t.Fatalf("device decap: %q, %v", got, err)
	}
}

func TestPairS2ReusesProvidedNetworkKey(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, security.KeySize)
	p, err := PairS2(rand.New(rand.NewSource(6)), key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.NetworkKey, key) {
		t.Fatal("pairing replaced the provided network key")
	}
}

func TestPairS2TranscriptShape(t *testing.T) {
	p, err := PairS2(rand.New(rand.NewSource(7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	// KEX_REPORT, KEX_SET, 2× PUBLIC_KEY_REPORT, NETWORK_KEY_GET,
	// NETWORK_KEY_REPORT, NETWORK_KEY_VERIFY, TRANSFER_END, NONCE_REPORT.
	if len(p.Transcript) != 9 {
		t.Fatalf("transcript has %d messages, want 9", len(p.Transcript))
	}
	for i, msg := range p.Transcript {
		if msg[0] != 0x9F {
			t.Fatalf("transcript[%d] not an S2 payload: % X", i, msg)
		}
	}
	// The network key must not appear in clear anywhere on the air.
	for i, msg := range p.Transcript {
		if bytes.Contains(msg, p.NetworkKey) {
			t.Fatalf("transcript[%d] leaks the network key", i)
		}
	}
}

func TestDoorLockAcceptsOnlyS2Operations(t *testing.T) {
	m, hub := newTestbed(t)
	lock := NewDoorLock(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "D8"}, 0x01)
	p, err := PairS2(rand.New(rand.NewSource(8)), nil)
	if err != nil {
		t.Fatal(err)
	}
	lock.InstallSession(p.DeviceSession)

	// Clear-text unlock attempt must be rejected.
	if err := hub.Send(0x02, []byte{byte(cmdclass.ClassDoorLock), byte(cmdclass.CmdDoorLockOperationSet), LockModeUnsecured}); err != nil {
		t.Fatal(err)
	}
	if lock.Mode() != LockModeSecured {
		t.Fatal("clear-text operation changed the lock state")
	}
	if _, rejected := lock.Stats(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}

	// S2-encapsulated unlock must be applied.
	h := testHome
	aad := []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h), 0x01, 0x02}
	encap, err := p.ControllerSession.Encapsulate(security.FlowAtoB, aad,
		[]byte{byte(cmdclass.ClassDoorLock), byte(cmdclass.CmdDoorLockOperationSet), LockModeUnsecured})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Send(0x02, encap); err != nil {
		t.Fatal(err)
	}
	if lock.Mode() != LockModeUnsecured {
		t.Fatal("S2 operation not applied")
	}
	if applied, _ := lock.Stats(); applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
}

func TestDoorLockRespondsToNIFRequest(t *testing.T) {
	m, hub := newTestbed(t)
	lock := NewDoorLock(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "D8"}, 0x01)
	var nif Identity
	got := false
	hub.Handler = func(f *protocol.Frame) {
		if id, ok := ParseNIF(f.Payload); ok {
			nif, got = id, true
		}
	}
	if err := hub.Send(0x02, NIFRequestPayload(0x02)); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("no NIF response")
	}
	if nif.Generic != GenericTypeEntryControl || nif.Security&SecS2 == 0 {
		t.Fatalf("lock NIF = %+v", nif)
	}
	if len(nif.Classes) != len(lock.Identity().Classes) {
		t.Fatalf("NIF lists %d classes, want %d", len(nif.Classes), len(lock.Identity().Classes))
	}
}

func TestDoorLockStatusReportEncrypted(t *testing.T) {
	m, hub := newTestbed(t)
	lock := NewDoorLock(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "D8"}, 0x01)
	p, err := PairS2(rand.New(rand.NewSource(9)), nil)
	if err != nil {
		t.Fatal(err)
	}
	lock.InstallSession(p.DeviceSession)
	var payload []byte
	hub.Handler = func(f *protocol.Frame) { payload = append([]byte{}, f.Payload...) }
	if err := lock.ReportStatus(); err != nil {
		t.Fatal(err)
	}
	if !security.IsEncapsulation(payload) {
		t.Fatalf("status report not S2-encapsulated: % X", payload)
	}
	h := testHome
	aad := []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h), 0x02, 0x01}
	plain, err := p.ControllerSession.Decapsulate(security.FlowBtoA, aad, payload)
	if err != nil {
		t.Fatal(err)
	}
	if cmdclass.ClassID(plain[0]) != cmdclass.ClassDoorLock {
		t.Fatalf("report plain = % X", plain)
	}
}

func TestDoorLockBatteryGet(t *testing.T) {
	m, hub := newTestbed(t)
	NewDoorLock(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "D8"}, 0x01)
	var report []byte
	hub.Handler = func(f *protocol.Frame) { report = append([]byte{}, f.Payload...) }
	if err := hub.Send(0x02, []byte{byte(cmdclass.ClassBattery), 0x02}); err != nil {
		t.Fatal(err)
	}
	if len(report) != 3 || report[0] != byte(cmdclass.ClassBattery) || report[1] != 0x03 {
		t.Fatalf("battery report = % X", report)
	}
}

func TestBinarySwitchClearTextControl(t *testing.T) {
	m, hub := newTestbed(t)
	sw := NewBinarySwitch(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x03, Name: "D9"}, 0x01)
	if err := hub.Send(0x03, []byte{byte(cmdclass.ClassSwitchBinary), byte(cmdclass.CmdSwitchBinarySet), 0xFF}); err != nil {
		t.Fatal(err)
	}
	if !sw.On() {
		t.Fatal("switch did not turn on")
	}
	// Legacy device: an attacker with the home ID can inject too.
	attacker := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x0F, Name: "attacker"})
	if err := attacker.Send(0x03, []byte{byte(cmdclass.ClassBasic), byte(cmdclass.CmdBasicSet), 0x00}); err != nil {
		t.Fatal(err)
	}
	if sw.On() {
		t.Fatal("injected BASIC_SET off was not applied — legacy model broken")
	}
	if sw.SetCount() != 2 {
		t.Fatalf("set count = %d, want 2", sw.SetCount())
	}
}

func TestBinarySwitchGetAndVersion(t *testing.T) {
	m, hub := newTestbed(t)
	NewBinarySwitch(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x03, Name: "D9"}, 0x01)
	var last []byte
	hub.Handler = func(f *protocol.Frame) { last = append([]byte{}, f.Payload...) }
	if err := hub.Send(0x03, []byte{byte(cmdclass.ClassSwitchBinary), byte(cmdclass.CmdSwitchBinaryGet)}); err != nil {
		t.Fatal(err)
	}
	if len(last) != 3 || last[1] != byte(cmdclass.CmdSwitchBinaryReport) || last[2] != 0x00 {
		t.Fatalf("switch report = % X", last)
	}
	if err := hub.Send(0x03, []byte{byte(cmdclass.ClassVersion), byte(cmdclass.CmdVersionGet)}); err != nil {
		t.Fatal(err)
	}
	if len(last) < 2 || last[1] != byte(cmdclass.CmdVersionReport) {
		t.Fatalf("version report = % X", last)
	}
}

// Property: NIF payload/parse round-trips arbitrary identities.
func TestNIFRoundTripProperty(t *testing.T) {
	prop := func(basic, generic, specific, cap8, sec byte, classes []byte) bool {
		if len(classes) > 30 {
			classes = classes[:30]
		}
		id := Identity{Basic: basic, Generic: generic, Specific: specific, Capability: cap8, Security: sec}
		for _, c := range classes {
			id.Classes = append(id.Classes, cmdclass.ClassID(c))
		}
		got, ok := ParseNIF(id.NIFPayload())
		if !ok {
			return false
		}
		if got.Basic != basic || got.Generic != generic || got.Specific != specific {
			return false
		}
		if len(got.Classes) != len(id.Classes) {
			return false
		}
		for i := range got.Classes {
			if got.Classes[i] != id.Classes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDoorLockSecuredOperationGet(t *testing.T) {
	m, hub := newTestbed(t)
	lock := NewDoorLock(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "D8"}, 0x01)
	p, err := PairS2(rand.New(rand.NewSource(11)), nil)
	if err != nil {
		t.Fatal(err)
	}
	lock.InstallSession(p.DeviceSession)

	var reply []byte
	hub.Handler = func(f *protocol.Frame) { reply = append([]byte{}, f.Payload...) }

	h := testHome
	aad := []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h), 0x01, 0x02}
	encap, err := p.ControllerSession.Encapsulate(security.FlowAtoB, aad,
		[]byte{byte(cmdclass.ClassDoorLock), byte(cmdclass.CmdDoorLockOperationGet)})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Send(0x02, encap); err != nil {
		t.Fatal(err)
	}
	if !security.IsEncapsulation(reply) {
		t.Fatalf("reply not encapsulated: % X", reply)
	}
	aadBack := []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h), 0x02, 0x01}
	plain, err := p.ControllerSession.Decapsulate(security.FlowBtoA, aadBack, reply)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0] != byte(cmdclass.ClassDoorLock) || plain[1] != byte(cmdclass.CmdDoorLockOperationReport) {
		t.Fatalf("report = % X", plain)
	}
	if plain[2] != LockModeSecured {
		t.Fatalf("reported mode = %#02x", plain[2])
	}
}

func TestNodeAccessors(t *testing.T) {
	m, _ := newTestbed(t)
	n := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x07, Name: "acc"})
	if n.Name() != "acc" || n.Clock() == nil || n.ID() != 0x07 {
		t.Fatal("accessors wrong")
	}
	n.Detach()
	if err := n.Send(0x01, []byte{0x00}); err == nil {
		t.Fatal("detached node transmitted")
	}
}

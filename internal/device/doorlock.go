package device

import (
	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
	"zcover/internal/security"
)

// LockMode values of DOOR_LOCK_OPERATION (class 0x62).
const (
	// LockModeUnsecured is "unlocked".
	LockModeUnsecured byte = 0x00
	// LockModeSecured is "locked".
	LockModeSecured byte = 0xFF
)

// DoorLock emulates testbed device D8: a Schlage BE469ZP-style smart door
// lock paired with S2 security. Operation commands (lock/unlock) are only
// accepted inside a valid S2 encapsulation; everything else a remote sender
// tries is ignored, as on the real device.
type DoorLock struct {
	node     *Node
	identity Identity
	hub      protocol.NodeID

	session *security.Session
	mode    byte
	battery byte

	opsApplied int
	rejected   int
}

// NewDoorLock attaches a door lock to the testbed. The S2 session is
// installed later by pairing (see PairS2).
func NewDoorLock(cfg Config, hub protocol.NodeID) *DoorLock {
	d := &DoorLock{
		hub:     hub,
		mode:    LockModeSecured,
		battery: 0x5F, // 95%
		identity: Identity{
			Basic:      BasicTypeSlave,
			Generic:    GenericTypeEntryControl,
			Specific:   0x03, // secure keypad door lock
			Capability: CapRouting,
			Security:   SecS2,
			Classes: []cmdclass.ClassID{
				cmdclass.ClassBasic,
				cmdclass.ClassDoorLock,
				cmdclass.ClassUserCode,
				cmdclass.ClassBattery,
				cmdclass.ClassWakeUp,
				cmdclass.ClassManufacturerSpec,
				cmdclass.ClassVersion,
				cmdclass.ClassSecurity0,
				cmdclass.ClassSecurity2,
			},
		},
	}
	d.node = NewNode(cfg)
	d.node.Handler = d.handle
	return d
}

// Node exposes the underlying node (for tests and the pairing flow).
func (d *DoorLock) Node() *Node { return d.node }

// Join puts the lock in learn mode and announces it to an including
// controller (the user pressing the inclusion button).
func (d *DoorLock) Join() error { return JoinNetwork(d.node, d.identity) }

// Identity reports the advertised NIF identity.
func (d *DoorLock) Identity() Identity { return d.identity }

// InstallSession installs the S2 session established during pairing. The
// lock is the "B" endpoint of the session (controller is "A").
func (d *DoorLock) InstallSession(s *security.Session) { d.session = s }

// Session returns the installed S2 session (nil before pairing).
func (d *DoorLock) Session() *security.Session { return d.session }

// Mode reports the current lock state.
func (d *DoorLock) Mode() byte { return d.mode }

// Stats reports secured operations applied and rejected attempts.
func (d *DoorLock) Stats() (applied, rejected int) { return d.opsApplied, d.rejected }

// ReportStatus proactively sends an S2-protected operation report to the
// hub — the periodic event traffic a passive sniffer feeds on.
func (d *DoorLock) ReportStatus() error {
	plain := []byte{byte(cmdclass.ClassDoorLock), byte(cmdclass.CmdDoorLockOperationReport), d.mode, 0x00, 0x00, 0xFE, 0xFE}
	if d.session == nil {
		return d.node.Send(d.hub, plain)
	}
	encap, err := d.session.Encapsulate(security.FlowBtoA, d.aad(d.node.ID(), d.hub), plain)
	security.CountS2Encapsulate(d.node.Lane(), err)
	if err != nil {
		return err
	}
	return d.node.Send(d.hub, encap)
}

// aad binds the MAC header into S2 tags, matching the controller's side.
func (d *DoorLock) aad(src, dst protocol.NodeID) []byte {
	h := d.node.Home()
	return []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h), byte(src), byte(dst)}
}

// handle is the lock's application dispatch.
func (d *DoorLock) handle(f *protocol.Frame) {
	if HandleInclusion(d.node, f) {
		return
	}
	payload := f.Payload
	if security.IsEncapsulation(payload) && d.session != nil {
		plain, err := d.session.Decapsulate(security.FlowAtoB, d.aad(f.Src, f.Dst), payload)
		security.CountS2Decapsulate(d.node.Lane(), d.session, err)
		if err != nil {
			d.rejected++
			return
		}
		d.handleSecured(f.Src, plain)
		return
	}
	if target, ok := IsNIFRequest(payload); ok && (target == 0 || target == d.node.ID()) {
		_ = d.node.Send(f.Src, d.identity.NIFPayload())
		return
	}
	if len(payload) >= 2 && payload[0] == byte(cmdclass.ClassBattery) && payload[1] == 0x02 {
		_ = d.node.Send(f.Src, []byte{byte(cmdclass.ClassBattery), 0x03, d.battery})
		return
	}
	// Anything security-sensitive arriving in clear text is rejected: the
	// lock itself implements the spec correctly — the controller is the
	// vulnerable party in this paper.
	if len(payload) >= 1 && cmdclass.ClassID(payload[0]) == cmdclass.ClassDoorLock {
		d.rejected++
	}
}

// handleSecured processes a decapsulated S2 payload.
func (d *DoorLock) handleSecured(src protocol.NodeID, plain []byte) {
	if len(plain) < 2 || cmdclass.ClassID(plain[0]) != cmdclass.ClassDoorLock {
		return
	}
	switch cmdclass.CommandID(plain[1]) {
	case cmdclass.CmdDoorLockOperationSet:
		if len(plain) >= 3 {
			d.mode = plain[2]
			d.opsApplied++
		}
	case cmdclass.CmdDoorLockOperationGet:
		reply := []byte{byte(cmdclass.ClassDoorLock), byte(cmdclass.CmdDoorLockOperationReport), d.mode, 0x00, 0x00, 0xFE, 0xFE}
		encap, err := d.session.Encapsulate(security.FlowBtoA, d.aad(d.node.ID(), src), reply)
		security.CountS2Encapsulate(d.node.Lane(), err)
		if err != nil {
			return
		}
		_ = d.node.Send(src, encap)
	}
}

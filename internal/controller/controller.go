package controller

import (
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/coverage"
	"zcover/internal/device"
	"zcover/internal/oracle"
	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/security"
	"zcover/internal/vtime"
)

// Stats aggregates a controller's traffic counters.
type Stats struct {
	// AppFrames counts application frames dispatched.
	AppFrames int
	// Replies counts application responses sent.
	Replies int
	// DroppedBusy counts frames dropped while the controller was hung.
	DroppedBusy int
	// SecureFrames counts S2-decapsulated application payloads.
	SecureFrames int
}

// Controller is one emulated testbed controller.
type Controller struct {
	node    *device.Node
	clock   *vtime.SimClock
	profile Profile
	bus     *oracle.Bus

	table        *NodeTable
	initialTable *NodeTable
	// wakeupStore is the separate NVM area holding per-node wake-up
	// configuration. It is written at inclusion time and — true to the
	// sloppy firmware the paper examines — NOT cleaned up when a node
	// table entry disappears.
	wakeupStore        map[protocol.NodeID]time.Duration
	initialWakeupStore map[protocol.NodeID]time.Duration
	host               *Host
	busyUntil          time.Time

	sessions map[protocol.NodeID]*security.Session
	hidden   map[cmdclass.ClassID]bool // implemented but not in the NIF
	nifSeq   byte
	stats    Stats

	// cov, when non-nil, receives behavioral-coverage observations from
	// the dispatch and Serial API paths (SetCoverage). Nil-guarded at
	// every call site so the disabled hot path pays one pointer compare.
	cov *coverage.Collector

	inclusionUntil time.Time
	exclusionUntil time.Time
	lastIncluded   protocol.NodeID

	// associations holds the association groups (group 1 is the lifeline).
	associations map[byte][]protocol.NodeID
}

// New attaches a controller with the given profile to the medium. The
// oracle bus receives anomaly events; it must not be nil.
func New(m *radio.Medium, region radio.Region, profile Profile, bus *oracle.Bus) *Controller {
	if bus == nil {
		panic("controller: New requires an oracle bus")
	}
	c := &Controller{
		clock:        m.Clock(),
		profile:      profile,
		bus:          bus,
		table:        NewNodeTable(),
		wakeupStore:  make(map[protocol.NodeID]time.Duration),
		host:         NewHost(profile.Host),
		sessions:     make(map[protocol.NodeID]*security.Session),
		hidden:       hiddenImplemented(profile),
		associations: map[byte][]protocol.NodeID{1: nil},
	}
	c.node = device.NewNode(device.Config{
		Medium: m, Region: region,
		Home: profile.Home, ID: 0x01, Name: profile.Index,
	})
	c.node.Gate = c.alive
	c.node.Handler = c.dispatch
	c.node.RawHook = c.macBugCheck

	// The controller itself is entry 1 of its own device table.
	c.table.Put(NodeRecord{
		ID: 0x01, Basic: device.BasicTypeStaticController,
		Generic: device.GenericTypeController, Specific: 0x01,
		Capability: device.CapListening | device.CapRouting,
		Classes:    profile.Listed,
	})
	c.initialTable = c.table.Snapshot()
	return c
}

// hiddenImplemented returns the classes the firmware implements without
// listing them in the NIF — the paper's "unlisted but supported"
// properties. Legacy controllers additionally implement (but do not list)
// the two classes missing from their NIF.
func hiddenImplemented(p Profile) map[cmdclass.ClassID]bool {
	out := map[cmdclass.ClassID]bool{
		cmdclass.ClassZWaveProtocol:   true,
		cmdclass.ClassProprietaryMfg:  true,
		cmdclass.ClassConfiguration:   true,
		cmdclass.ClassWakeUp:          true,
		cmdclass.ClassNetworkMgmtIncl: true,
		0x4D:                          true, // NETWORK_MANAGEMENT_BASIC
		0x52:                          true, // NETWORK_MANAGEMENT_PROXY
		0x54:                          true, // NETWORK_MANAGEMENT_PRIMARY
		0x67:                          true, // NM_INSTALLATION_MAINTENANCE
		cmdclass.ClassIndicator:       true,
	}
	listed := make(map[cmdclass.ClassID]bool, len(p.Listed))
	for _, c := range p.Listed {
		listed[c] = true
	}
	if !listed[cmdclass.ClassZWavePlusInfo] {
		out[cmdclass.ClassZWavePlusInfo] = true
	}
	if !listed[cmdclass.ClassSupervision] {
		out[cmdclass.ClassSupervision] = true
	}
	return out
}

// SetCoverage attaches (or, with nil, detaches) a behavioral-coverage
// collector. The collector is not thread-safe; attach one collector per
// campaign, on the campaign's own testbed, for the duration of its
// fuzzing phase.
func (c *Controller) SetCoverage(cov *coverage.Collector) { c.cov = cov }

// Node exposes the controller's radio node.
func (c *Controller) Node() *device.Node { return c.node }

// Profile reports the device profile.
func (c *Controller) Profile() Profile { return c.profile }

// Table exposes the controller's node table (the oracle and testbed setup
// read it; the fuzzers never do).
func (c *Controller) Table() *NodeTable { return c.table }

// Host exposes the attached host software.
func (c *Controller) Host() *Host { return c.host }

// Stats reports traffic counters.
func (c *Controller) Stats() Stats { return c.stats }

// Busy reports whether the controller is currently hung.
func (c *Controller) Busy() bool { return c.clock.Now().Before(c.busyUntil) }

// alive is the node gate: a hung controller neither acks nor dispatches.
func (c *Controller) alive() bool {
	if c.Busy() {
		c.stats.DroppedBusy++
		return false
	}
	return true
}

// IncludeNode registers a slave in the controller's table (testbed setup:
// the device has been included in the network).
func (c *Controller) IncludeNode(r NodeRecord) {
	c.table.Put(r)
	if r.WakeupInterval > 0 {
		c.wakeupStore[r.ID] = r.WakeupInterval
	}
	c.initialTable = c.table.Snapshot()
	c.initialWakeupStore = copyWakeupStore(c.wakeupStore)
}

// copyWakeupStore duplicates the wake-up NVM area.
func copyWakeupStore(in map[protocol.NodeID]time.Duration) map[protocol.NodeID]time.Duration {
	out := make(map[protocol.NodeID]time.Duration, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// WakeupInterval reads the stored wake-up configuration for a node.
func (c *Controller) WakeupInterval(id protocol.NodeID) time.Duration {
	return c.wakeupStore[id]
}

// InstallSession installs the controller-side S2 session for a paired node.
func (c *Controller) InstallSession(id protocol.NodeID, s *security.Session) {
	c.sessions[id] = s
}

// Session returns the S2 session for a node, if paired.
func (c *Controller) Session(id protocol.NodeID) (*security.Session, bool) {
	s, ok := c.sessions[id]
	return s, ok
}

// Supports reports whether the firmware processes the given class at all
// (listed or hidden).
func (c *Controller) Supports(id cmdclass.ClassID) bool {
	if c.hidden[id] {
		return true
	}
	for _, l := range c.profile.Listed {
		if l == id {
			return true
		}
	}
	return false
}

// Reset restores the controller to its post-inclusion state: node table,
// host software, and hang timers. Used between fuzzing trials.
func (c *Controller) Reset() {
	c.associations = map[byte][]protocol.NodeID{1: nil}
	c.table.Restore(c.initialTable)
	c.wakeupStore = copyWakeupStore(c.initialWakeupStore)
	c.host.Restart()
	c.busyUntil = time.Time{}
	c.stats = Stats{}
}

// identity builds the controller's NIF identity from its profile.
func (c *Controller) identity() device.Identity {
	return device.Identity{
		Basic:      device.BasicTypeStaticController,
		Generic:    device.GenericTypeController,
		Specific:   0x01,
		Capability: device.CapListening | device.CapRouting,
		Security:   device.SecS0 | device.SecS2,
		Classes:    c.profile.Listed,
	}
}

// Associations reports the members of an association group.
func (c *Controller) Associations(group byte) []protocol.NodeID {
	return append([]protocol.NodeID(nil), c.associations[group]...)
}

// associate adds a node to a group (duplicates ignored, groups 1-5 only).
func (c *Controller) associate(group byte, id protocol.NodeID) {
	if group < 1 || group > 5 || !id.IsUnicast() {
		return
	}
	for _, m := range c.associations[group] {
		if m == id {
			return
		}
	}
	c.associations[group] = append(c.associations[group], id)
}

// disassociate removes a node from a group (all groups when group is 0).
func (c *Controller) disassociate(group byte, id protocol.NodeID) {
	groups := []byte{group}
	if group == 0 {
		groups = groups[:0]
		for g := range c.associations {
			groups = append(groups, g)
		}
	}
	for _, g := range groups {
		members := c.associations[g][:0]
		for _, m := range c.associations[g] {
			if m != id {
				members = append(members, m)
			}
		}
		c.associations[g] = members
	}
}

// aad binds MAC header fields into S2 tags (must match the slave side).
func (c *Controller) aad(src, dst protocol.NodeID) []byte {
	h := c.profile.Home
	return []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h), byte(src), byte(dst)}
}

// dispatch is the controller's application-layer receive path.
func (c *Controller) dispatch(f *protocol.Frame) {
	payload := f.Payload
	if len(payload) == 0 {
		return
	}
	c.stats.AppFrames++

	class := cmdclass.ClassID(payload[0])
	if class == 0x00 { // NOP: liveness probe, MAC ack already sent
		return
	}

	// S2 traffic from a paired node is decapsulated and consumed.
	if security.IsEncapsulation(payload) {
		if s, ok := c.sessions[f.Src]; ok {
			plain, err := s.Decapsulate(security.FlowBtoA, c.aad(f.Src, f.Dst), payload)
			security.CountS2Decapsulate(c.node.Lane(), s, err)
			if err == nil {
				c.stats.SecureFrames++
				if c.cov != nil && len(plain) >= 2 {
					c.cov.OnDispatch(plain[0], plain[1], 0, true)
				}
				c.consumeSecured(f.Src, plain)
				return
			}
		}
		// Fall through: an unparseable 0x9F frame still reaches the S2
		// command parser below (NONCE_GET etc. are clear-text commands).
	}

	c.dispatchPayload(f.Src, payload, 0)
}

// consumeSecured processes an S2-decapsulated payload from a paired slave
// (status reports and the like).
func (c *Controller) consumeSecured(src protocol.NodeID, plain []byte) {
	// Reports are consumed silently; the hub forwards them to the cloud,
	// which the simulation does not model beyond host health.
	_ = src
	_ = plain
}

// reply sends an application payload back and counts it.
func (c *Controller) reply(dst protocol.NodeID, payload []byte) {
	c.stats.Replies++
	_ = c.node.Send(dst, payload)
}

// hang wedges the controller for d and emits the matching oracle event.
func (c *Controller) hang(d time.Duration, class cmdclass.ClassID, cmd cmdclass.CommandID, detail string) {
	until := c.clock.Now().Add(d)
	if until.After(c.busyUntil) {
		c.busyUntil = until
	}
	c.emit(oracle.ServiceHang, class, cmd, d, detail)
}

// emit publishes an anomaly event on the oracle bus.
func (c *Controller) emit(kind oracle.Kind, class cmdclass.ClassID, cmd cmdclass.CommandID, d time.Duration, detail string) {
	c.bus.Emit(oracle.Event{
		At:       c.clock.Now(),
		Device:   c.profile.Index,
		Kind:     kind,
		Class:    byte(class),
		Cmd:      byte(cmd),
		Duration: d,
		Detail:   detail,
	})
}

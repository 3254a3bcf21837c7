package device

import (
	"fmt"
	"io"

	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
	"zcover/internal/security"
)

// S0Channel is one endpoint of a Security-0 protected link: the legacy
// AES-128 transport of §II-A1. Each protected transmission runs the real
// S0 exchange over the air — NONCE_GET, NONCE_REPORT, MESSAGE
// ENCAPSULATION — so a sniffer sees exactly the frames the paper's
// analysis (and the Fouladi/Ghanoun attack) works with.
type S0Channel struct {
	node *Node
	keys security.S0Keys
	rng  io.Reader

	// issued holds nonces this endpoint handed out, keyed by their first
	// byte (the S0 nonce identifier).
	issued map[byte][]byte
	// pendingNonce buffers the peer nonce received for our next send.
	pendingNonce []byte
	// inbox receives decapsulated payloads.
	inbox [][]byte
}

// NewS0Channel wraps a node with S0 protection under the network key.
func NewS0Channel(node *Node, networkKey []byte, rng io.Reader) (*S0Channel, error) {
	keys, err := security.DeriveS0Keys(networkKey)
	if err != nil {
		return nil, err
	}
	return &S0Channel{node: node, keys: keys, rng: rng, issued: make(map[byte][]byte)}, nil
}

// HandleFrame processes S0 protocol frames addressed to this endpoint. It
// returns true when the frame was consumed.
func (s *S0Channel) HandleFrame(f *protocol.Frame) bool {
	payload := f.Payload
	if len(payload) < 2 || cmdclass.ClassID(payload[0]) != cmdclass.ClassSecurity0 {
		return false
	}
	switch cmdclass.CommandID(payload[1]) {
	case cmdclass.CmdS0NonceGet:
		nonce, err := security.NewS0Nonce(s.rng)
		if err != nil {
			return true
		}
		s.issued[nonce[0]] = nonce
		reply := append([]byte{byte(cmdclass.ClassSecurity0), byte(cmdclass.CmdS0NonceReport)}, nonce...)
		_ = s.node.Send(f.Src, reply)
		return true

	case cmdclass.CmdS0NonceReport:
		if len(payload) == 2+security.S0NonceSize {
			s.pendingNonce = append([]byte{}, payload[2:]...)
		}
		return true

	case cmdclass.CmdS0MessageEncap:
		if len(payload) < 2+security.S0NonceSize+1+security.S0MACSize {
			return true
		}
		nonceID := payload[len(payload)-1-security.S0MACSize]
		nonce, ok := s.issued[nonceID]
		if !ok {
			return true // unknown or already-used nonce
		}
		delete(s.issued, nonceID)
		plain, err := security.S0Decapsulate(s.keys, nonce, s.header(f.Src, f.Dst), payload)
		security.CountS0Decapsulate(s.node.Lane(), err)
		if err != nil {
			return true // forged or corrupted
		}
		s.inbox = append(s.inbox, plain)
		return true
	}
	return false
}

// header binds the MAC context into the S0 MAC, both directions agreeing.
func (s *S0Channel) header(src, dst protocol.NodeID) []byte {
	return []byte{0x81, byte(src), byte(dst)}
}

// SendSecured runs the full S0 exchange to deliver plaintext to dst:
// request a nonce, wait for the report (the caller advances the clock via
// the synchronous radio), encapsulate, transmit.
func (s *S0Channel) SendSecured(dst protocol.NodeID, plaintext []byte) error {
	s.pendingNonce = nil
	if err := s.node.Send(dst, []byte{byte(cmdclass.ClassSecurity0), byte(cmdclass.CmdS0NonceGet)}); err != nil {
		return err
	}
	if s.pendingNonce == nil {
		return fmt.Errorf("device: S0 peer %s sent no nonce", dst)
	}
	senderNonce, err := security.NewS0Nonce(s.rng)
	if err != nil {
		return err
	}
	encap, err := security.S0Encapsulate(s.keys, senderNonce, s.pendingNonce,
		s.header(s.node.ID(), dst), plaintext)
	security.CountS0Encapsulate(s.node.Lane(), err)
	if err != nil {
		return err
	}
	s.pendingNonce = nil
	return s.node.Send(dst, encap)
}

// Received drains the decapsulated inbox.
func (s *S0Channel) Received() [][]byte {
	out := s.inbox
	s.inbox = nil
	return out
}

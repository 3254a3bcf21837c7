package security

import (
	"crypto/rand"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"

	"zcover/internal/telemetry"
)

// Process-wide S0 transport metrics (the S2 counterparts live in s2.go).
// The package has no testbed in reach, so the callers count each operation
// through their testbed's lane with CountS0Encapsulate and
// CountS0Decapsulate.
var (
	mS0Encrypt  = telemetry.Default().Counter("security_s0_encrypt_total")
	mS0Decrypt  = telemetry.Default().Counter("security_s0_decrypt_total")
	mS0AuthFail = telemetry.Default().Counter("security_s0_auth_fail_total")
)

// Security 0 (S0) encapsulation: the legacy AES-128 transport. Key
// derivation, OFB encryption, and CBC-MAC authentication follow the S0
// specification. The scheme's well-known weakness — the network key is
// transferred during inclusion under a *fixed all-zero temporary key*
// (Fouladi & Ghanoun, Black Hat 2013; paper §II-A1) — is reproduced
// faithfully: see S0TempKey and the s0 inclusion test, which demonstrates
// that a passive sniffer recovers the network key.

const (
	// S0NonceSize is the size of each S0 nonce half (sender/receiver).
	S0NonceSize = 8
	// S0MACSize is the truncated CBC-MAC length.
	S0MACSize = 8
)

// ErrS0Auth indicates S0 MAC verification failed.
var ErrS0Auth = errors.New("security: S0 authentication failed")

// s0TempKey is the specification's fixed all-zero S0 temporary key.
var s0TempKey [KeySize]byte

// S0TempKey returns the temporary key protecting the S0 network-key
// transfer. The specification fixes it to all zeros — the root cause of the
// S0 downgrade/MITM weakness.
//
// The returned slice aliases a single package-level constant so that every
// call resolves to the same key-context cache entry; callers must treat it
// as read-only. (It used to return a fresh zero slice per call, which both
// defeated the cache and let callers mutate what looked like shared state.)
func S0TempKey() []byte { return s0TempKey[:] }

// s0 key-derivation constants: the network key encrypts a fixed pattern to
// produce the encryption and authentication keys.
var (
	s0EncPattern  = repeatByte(0xAA, BlockSize)
	s0AuthPattern = repeatByte(0x55, BlockSize)
)

func repeatByte(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// S0Keys holds the derived S0 encryption and authentication keys.
type S0Keys struct {
	// Enc is the AES-OFB encryption key.
	Enc []byte
	// Auth is the CBC-MAC authentication key.
	Auth []byte
}

// DeriveS0Keys expands a 16-byte network key into the S0 key pair.
func DeriveS0Keys(networkKey []byte) (S0Keys, error) {
	ctx, err := contextFor(networkKey)
	if err != nil {
		return S0Keys{}, fmt.Errorf("security: S0 network key: %w", err)
	}
	enc := make([]byte, BlockSize)
	auth := make([]byte, BlockSize)
	ctx.block.Encrypt(enc, s0EncPattern)
	ctx.block.Encrypt(auth, s0AuthPattern)
	return S0Keys{Enc: enc, Auth: auth}, nil
}

// NewS0Nonce draws one 8-byte nonce half.
func NewS0Nonce(rng io.Reader) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	n := make([]byte, S0NonceSize)
	if _, err := io.ReadFull(rng, n); err != nil {
		return nil, fmt.Errorf("security: drawing S0 nonce: %w", err)
	}
	return n, nil
}

// S0Encapsulate protects plaintext with the S0 scheme. senderNonce and
// receiverNonce are the two 8-byte halves of the OFB IV (the receiver half
// comes from a NONCE_REPORT exchange). header binds the MAC-layer context
// (security byte, src, dst, length) into the MAC as the spec prescribes.
// The returned payload is [0x98, 0x81, senderNonce, ciphertext,
// receiverNonceID, mac].
func S0Encapsulate(keys S0Keys, senderNonce, receiverNonce, header, plaintext []byte) ([]byte, error) {
	if len(senderNonce) != S0NonceSize || len(receiverNonce) != S0NonceSize {
		return nil, fmt.Errorf("security: S0 nonces must be %d bytes", S0NonceSize)
	}
	encCtx, err := contextFor(keys.Enc)
	if err != nil {
		return nil, err
	}
	authCtx, err := contextFor(keys.Auth)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer putScratch(sc)
	copy(sc.iv[:S0NonceSize], senderNonce)
	copy(sc.iv[S0NonceSize:], receiverNonce)

	// The single allocation is the returned payload; the ciphertext is
	// produced in place inside it.
	out := make([]byte, 0, 2+S0NonceSize+len(plaintext)+1+S0MACSize)
	out = append(out, 0x98, 0x81)
	out = append(out, senderNonce...)
	ctStart := len(out)
	out = out[:ctStart+len(plaintext)]
	ct := out[ctStart:]
	ofbCrypt(encCtx, sc, ct, plaintext)
	mac := s0MAC(authCtx, sc, header, ct)
	out = append(out, receiverNonce[0]) // nonce identifier
	out = append(out, mac[:]...)
	return out, nil
}

// CountS0Encapsulate counts one S0Encapsulate call through lane l.
func CountS0Encapsulate(l telemetry.Lane, err error) {
	if err == nil {
		mS0Encrypt.IncLane(l)
	}
}

// CountS0Decapsulate counts one S0Decapsulate call through lane l: a
// decryption, or an authentication failure.
func CountS0Decapsulate(l telemetry.Lane, err error) {
	switch {
	case err == nil:
		mS0Decrypt.IncLane(l)
	case errors.Is(err, ErrS0Auth):
		mS0AuthFail.IncLane(l)
	}
}

// S0Decapsulate reverses S0Encapsulate. The caller supplies the receiver
// nonce it handed out earlier (matched by the embedded nonce identifier).
func S0Decapsulate(keys S0Keys, receiverNonce, header, payload []byte) ([]byte, error) {
	minLen := 2 + S0NonceSize + 1 + S0MACSize
	if len(payload) < minLen {
		return nil, fmt.Errorf("%w: payload too short (%d bytes)", ErrS0Auth, len(payload))
	}
	if payload[0] != 0x98 || payload[1] != 0x81 {
		return nil, fmt.Errorf("%w: not an S0 message encapsulation", ErrS0Auth)
	}
	senderNonce := payload[2 : 2+S0NonceSize]
	ct := payload[2+S0NonceSize : len(payload)-1-S0MACSize]
	nonceID := payload[len(payload)-1-S0MACSize]
	gotMAC := payload[len(payload)-S0MACSize:]

	if nonceID != receiverNonce[0] {
		return nil, fmt.Errorf("%w: unknown receiver nonce id %#02x", ErrS0Auth, nonceID)
	}
	authCtx, err := contextFor(keys.Auth)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer putScratch(sc)
	copy(sc.iv[:S0NonceSize], senderNonce)
	copy(sc.iv[S0NonceSize:], receiverNonce)
	wantMAC := s0MAC(authCtx, sc, header, ct)
	if subtle.ConstantTimeCompare(gotMAC, wantMAC[:]) != 1 {
		return nil, ErrS0Auth
	}
	encCtx, err := contextFor(keys.Enc)
	if err != nil {
		return nil, err
	}
	pt := make([]byte, len(ct))
	ofbCrypt(encCtx, sc, pt, ct)
	return pt, nil
}

// s0MAC computes the truncated AES-CBC-MAC over header and ciphertext,
// bound to the IV the caller placed in sc.iv. The MAC'd message (header,
// length byte, ciphertext) is assembled in sc.msg — S0 payloads are
// bounded by the 64-byte MAC frame, so the scratch always suffices.
func s0MAC(ctx *keyContext, sc *scratch, header, ct []byte) [S0MACSize]byte {
	var msg []byte
	if n := len(header) + 1 + len(ct); n <= len(sc.msg) {
		msg = sc.msg[:0]
	} else {
		msg = make([]byte, 0, n)
	}
	msg = append(msg, header...)
	msg = append(msg, byte(len(ct)))
	msg = append(msg, ct...)

	// CBC-MAC with the IV encrypted as the first block (per S0).
	ctx.block.Encrypt(sc.x[:], sc.iv[:])
	for i := 0; i < len(msg); i += BlockSize {
		end := i + BlockSize
		if end > len(msg) {
			end = len(msg)
		}
		xorBytes(&sc.x, msg[i:end])
		ctx.block.Encrypt(sc.x[:], sc.x[:])
	}
	var mac [S0MACSize]byte
	copy(mac[:], sc.x[:S0MACSize])
	return mac
}

// ofbCrypt applies AES-OFB keystream from the cached context, with the IV
// read from sc.iv (left intact for the MAC) and the keystream evolving in
// sc.ks. OFB is symmetric, so the same function encrypts and decrypts.
func ofbCrypt(ctx *keyContext, sc *scratch, dst, src []byte) {
	sc.ks = sc.iv
	for i := 0; i < len(src); i += BlockSize {
		ctx.block.Encrypt(sc.ks[:], sc.ks[:])
		end := i + BlockSize
		if end > len(src) {
			end = len(src)
		}
		for j := i; j < end; j++ {
			dst[j] = src[j] ^ sc.ks[j-i]
		}
	}
}

// S0EncryptNetworkKeyTransfer models the inclusion-time NETWORK_KEY_SET:
// the permanent network key encrypted under the *fixed all-zero temporary
// key*. A sniffer that captures this exchange recovers the network key —
// the S0 weakness the paper cites.
func S0EncryptNetworkKeyTransfer(networkKey, senderNonce, receiverNonce []byte) ([]byte, error) {
	tempKeys, err := DeriveS0Keys(S0TempKey())
	if err != nil {
		return nil, err
	}
	header := []byte{0x98, 0x06} // NETWORK_KEY_SET context
	return S0Encapsulate(tempKeys, senderNonce, receiverNonce, header, networkKey)
}

// S0RecoverNetworkKeyFromCapture is the attacker's side of the S0
// weakness: given a captured key-transfer encapsulation and the receiver
// nonce (both visible on the air), recover the network key using the
// known-fixed temporary key.
func S0RecoverNetworkKeyFromCapture(capture, receiverNonce []byte) ([]byte, error) {
	tempKeys, err := DeriveS0Keys(S0TempKey())
	if err != nil {
		return nil, err
	}
	header := []byte{0x98, 0x06}
	return S0Decapsulate(tempKeys, receiverNonce, header, capture)
}

// Package auth implements the request authentication used between Rover
// clients and servers.
//
// The paper describes the Rover server as "a secure setuid application that
// authenticates requests from client applications". We model that with a
// shared-secret scheme: each client identity holds a key, and every session
// open (the QRPC Hello frame) carries an HMAC-SHA256 proof over the client
// identity and a server-supplied challenge, so proofs cannot be replayed
// across sessions.
package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Errors returned by verification.
var (
	ErrUnknownClient = errors.New("auth: unknown client")
	ErrBadProof      = errors.New("auth: bad proof")
)

// ProofSize is the length in bytes of a proof.
const ProofSize = sha256.Size

// Key is a client's shared secret.
type Key []byte

// NewKey generates a random 32-byte key.
func NewKey() (Key, error) {
	k := make(Key, 32)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("auth: keygen: %w", err)
	}
	return k, nil
}

// KeyFromHex parses a hex-encoded key (for config files and the CLI).
func KeyFromHex(s string) (Key, error) {
	k, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("auth: bad hex key: %w", err)
	}
	if len(k) < 16 {
		return nil, errors.New("auth: key shorter than 16 bytes")
	}
	return k, nil
}

// Hex returns the hex encoding of the key.
func (k Key) Hex() string { return hex.EncodeToString(k) }

// Prove computes the proof a client presents for the given challenge.
func Prove(key Key, clientID string, challenge []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write([]byte(clientID))
	m.Write([]byte{0})
	m.Write(challenge)
	return m.Sum(nil)
}

// Registry maps client identities to keys on the server side. A nil
// Registry disables authentication (useful for tests and simulations);
// servers embedding a non-nil Registry reject unproven sessions.
type Registry struct {
	mu   sync.RWMutex
	keys map[string]Key
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[string]Key)}
}

// Add registers (or replaces) a client key.
func (r *Registry) Add(clientID string, key Key) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[clientID] = key
}

// Remove deletes a client's key.
func (r *Registry) Remove(clientID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.keys, clientID)
}

// Verify checks a client's proof for the given challenge.
func (r *Registry) Verify(clientID string, challenge, proof []byte) error {
	r.mu.RLock()
	key, ok := r.keys[clientID]
	if i, j := strings.IndexByte(clientID, '#'), strings.LastIndexByte(clientID, '!'); !ok && i >= 0 && i < j {
		// An incarnation-tagged identity, "A#<tag>!repl" (see
		// repl.ClientID), proves with the key of its untagged form: the tag
		// changes at every restart, the key does not.
		key, ok = r.keys[clientID[:i]+clientID[j:]]
	}
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, clientID)
	}
	want := Prove(key, clientID, challenge)
	if !hmac.Equal(want, proof) {
		return ErrBadProof
	}
	return nil
}

// NewChallenge generates a random 16-byte challenge.
func NewChallenge() ([]byte, error) {
	c := make([]byte, 16)
	if _, err := rand.Read(c); err != nil {
		return nil, fmt.Errorf("auth: challenge: %w", err)
	}
	return c, nil
}

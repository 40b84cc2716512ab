package auth

import (
	"errors"
	"testing"
)

func TestProveVerify(t *testing.T) {
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("client-1", key)
	ch, err := NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	proof := Prove(key, "client-1", ch)
	if len(proof) != ProofSize {
		t.Errorf("proof size %d", len(proof))
	}
	if err := reg.Verify("client-1", ch, proof); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestVerifyRejectsWrongClient(t *testing.T) {
	key, _ := NewKey()
	reg := NewRegistry()
	reg.Add("client-1", key)
	ch, _ := NewChallenge()
	if err := reg.Verify("client-2", ch, Prove(key, "client-2", ch)); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("unknown client: %v", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	k1, _ := NewKey()
	k2, _ := NewKey()
	reg := NewRegistry()
	reg.Add("client-1", k1)
	ch, _ := NewChallenge()
	if err := reg.Verify("client-1", ch, Prove(k2, "client-1", ch)); !errors.Is(err, ErrBadProof) {
		t.Errorf("wrong key: %v", err)
	}
}

func TestProofBoundToChallenge(t *testing.T) {
	key, _ := NewKey()
	reg := NewRegistry()
	reg.Add("c", key)
	ch1, _ := NewChallenge()
	ch2, _ := NewChallenge()
	proof := Prove(key, "c", ch1)
	if err := reg.Verify("c", ch2, proof); !errors.Is(err, ErrBadProof) {
		t.Errorf("replayed proof accepted: %v", err)
	}
}

func TestProofBoundToIdentity(t *testing.T) {
	key, _ := NewKey()
	reg := NewRegistry()
	reg.Add("a", key)
	reg.Add("b", key) // same key, different identity
	ch, _ := NewChallenge()
	proof := Prove(key, "a", ch)
	if err := reg.Verify("b", ch, proof); !errors.Is(err, ErrBadProof) {
		t.Errorf("proof transferable across identities: %v", err)
	}
}

// TestTaggedIdentityUsesUntaggedKey: a replication incarnation, tagged
// "A#<tag>!repl", proves with the key registered for "A!repl", and its
// proof stays bound to the tagged identity it names.
func TestTaggedIdentityUsesUntaggedKey(t *testing.T) {
	key, _ := NewKey()
	reg := NewRegistry()
	reg.Add("A!repl", key)
	ch, _ := NewChallenge()
	if err := reg.Verify("A#1700000000!repl", ch, Prove(key, "A#1700000000!repl", ch)); err != nil {
		t.Fatalf("tagged identity: %v", err)
	}
	if err := reg.Verify("A#1700000000!repl", ch, Prove(key, "A!repl", ch)); !errors.Is(err, ErrBadProof) {
		t.Errorf("untagged proof accepted for the tagged identity: %v", err)
	}
	if err := reg.Verify("B#1!repl", ch, Prove(key, "B#1!repl", ch)); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("tagged identity of an unregistered server: %v", err)
	}
}

func TestRemove(t *testing.T) {
	key, _ := NewKey()
	reg := NewRegistry()
	reg.Add("c", key)
	reg.Remove("c")
	ch, _ := NewChallenge()
	if err := reg.Verify("c", ch, Prove(key, "c", ch)); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("removed client still verifies: %v", err)
	}
}

func TestKeyHexRoundTrip(t *testing.T) {
	key, _ := NewKey()
	back, err := KeyFromHex(key.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(key) {
		t.Error("hex round trip changed the key")
	}
	if _, err := KeyFromHex("zz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := KeyFromHex("00ff"); err == nil {
		t.Error("short key accepted")
	}
}

//go:build race

package qrpc_test

// Under the race detector sync.Pool drops a quarter of all Puts on purpose,
// so steady-state allocation counts mean nothing.
const raceEnabled = true

//go:build !race

package qrpc_test

const raceEnabled = false

//go:build !race

package access

const raceEnabled = false

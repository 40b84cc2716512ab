//go:build !race

package rdo_test

const raceEnabled = false

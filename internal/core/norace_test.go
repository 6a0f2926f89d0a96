//go:build !race

package core

// raceEnabled: see race_test.go.
const raceEnabled = false

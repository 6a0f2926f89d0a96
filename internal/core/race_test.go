//go:build race

package core

// raceEnabled reports whether the tests run under the race detector,
// which makes sync.Pool drop pooled items at random: allocation counts
// of the pooled conveniences mean nothing there.
const raceEnabled = true

//go:build race

package coldstore

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// a pooled buffer's reuse cannot be asserted.
const raceEnabled = true

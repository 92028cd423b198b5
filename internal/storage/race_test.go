//go:build race

package storage

// raceEnabled: under the race detector a read's stack buffer escapes
// (the syscall layer reports the range it writes), so allocations cannot
// be asserted.
const raceEnabled = true

//go:build !race

package coldstore

const raceEnabled = false

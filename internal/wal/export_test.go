package wal

// Wakeups reports how many times l's commit daemon came off its select.
func Wakeups(l *Log) int64 { return l.wakeups.Load() }

// BoundWakeups reports how many of those the staleness bound caused.
func BoundWakeups(l *Log) int64 { return l.bounded.Load() }

// PeriodWaits reports how many of l's fsyncs began by waiting out the sync
// period, the one after each fsync that covered more than one record.
func PeriodWaits(l *Log) int64 { return l.periods.Load() }

// HoldDisk takes d's disk token, as a commit daemon does around its fsync,
// until release is called: meanwhile no log of d starts an fsync.
func HoldDisk(d *Dir) (release func()) {
	d.disk <- struct{}{}
	return func() { <-d.disk }
}

// StalenessBound bounds how long an un-waited record stays buffered.
const StalenessBound = stalenessBound

// SyncPeriod is a batching log's fsync period.
const SyncPeriod = syncPeriod

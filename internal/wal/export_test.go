package wal

// Wakeups reports how many times l's commit daemon came off its select.
func Wakeups(l *Log) int64 { return l.wakeups.Load() }

// BoundWakeups reports how many of those the staleness bound caused.
func BoundWakeups(l *Log) int64 { return l.bounded.Load() }

// PeriodWaits reports how many of l's fsyncs began by waiting out the sync
// period, the one after each fsync that covered more than one record.
func PeriodWaits(l *Log) int64 { return l.periods.Load() }

// StalenessBound bounds how long an un-waited record stays buffered.
const StalenessBound = stalenessBound

// SyncPeriod is a batching log's fsync period.
const SyncPeriod = syncPeriod

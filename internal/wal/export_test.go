package wal

// Wakeups reports how many times l's commit daemon came off its select.
func Wakeups(l *Log) int64 { return l.wakeups.Load() }

// BoundWakeups reports how many of those the staleness bound caused.
func BoundWakeups(l *Log) int64 { return l.bounded.Load() }

// StalenessBound bounds how long an un-waited record stays buffered.
const StalenessBound = stalenessBound

// SyncPeriod is a busy log's fsync period.
const SyncPeriod = syncPeriod

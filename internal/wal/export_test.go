package wal

// Wakeups reports how many times l's commit daemon came off its select.
func Wakeups(l *Log) int64 { return l.wakeups.Load() }

// StalenessBound is the log's one time constant.
const StalenessBound = stalenessBound

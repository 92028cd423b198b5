package core

// Session-scoped snapshot pins. The wire protocol's per-statement reads
// each pin a fresh MVCC snapshot, so two SELECTs in one client session can
// observe different committed states. A SnapshotPin holds one consistent
// cross-partition cut (the same seqMu-fenced cut Query acquires per
// statement) for as long as the session wants it: every QueryPinned against
// the pin sees the identical state, and Release (or the server's
// disconnect cleanup) drops the GC hold.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/pe"
	"repro/internal/types"
)

// SnapshotPin is a held cross-partition snapshot: one pinned committed
// sequence per partition, taken atomically against 2PC publication. Pins
// hold the GC watermark on every partition — release them promptly.
type SnapshotPin struct {
	s     *Store
	cut   snapCut
	taken time.Time

	mu       sync.Mutex // serializes queries on the pin and guards released
	released bool
}

// PinSnapshot acquires a snapshot pin at the latest committed cut.
func (s *Store) PinSnapshot() *SnapshotPin {
	pin := &SnapshotPin{s: s, taken: time.Now()}
	s.acquireCut(&pin.cut, true)
	s.pinMu.Lock()
	s.pins[pin] = struct{}{}
	s.pinMu.Unlock()
	return pin
}

// oldestPinAge is how long the oldest live session pin has been held, 0
// with none.
func (s *Store) oldestPinAge() time.Duration {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	var age time.Duration
	for pin := range s.pins {
		age = max(age, time.Since(pin.taken))
	}
	return age
}

// Release drops the pin. Idempotent.
func (pin *SnapshotPin) Release() {
	pin.mu.Lock()
	defer pin.mu.Unlock()
	if !pin.released {
		pin.released = true
		pin.cut.release()
		pin.s.pinMu.Lock()
		delete(pin.s.pins, pin)
		pin.s.pinMu.Unlock()
	}
}

// QueryPinned runs a SELECT against the pinned cut: repeated queries on one
// pin all observe the same committed state, regardless of concurrent
// writers. Non-SELECT statements are rejected — a pin is a read artifact.
// Queries on one pin serialize against each other and against Release.
func (s *Store) QueryPinned(pin *SnapshotPin, sqlText string, params ...types.Value) (*pe.Result, error) {
	if pin == nil || pin.s != s {
		return nil, fmt.Errorf("core: snapshot pin does not belong to this store")
	}
	if err := parseSelect(sqlText, "core: pinned queries must be SELECT statements"); err != nil {
		return nil, err
	}
	// The pin's mutex is held for the whole read so a concurrent Release
	// (session teardown) cannot unpin sequences mid-scan.
	pin.mu.Lock()
	defer pin.mu.Unlock()
	if pin.released {
		return nil, fmt.Errorf("core: snapshot pin was released")
	}
	return s.readCut(&pin.cut, sqlText, params)
}

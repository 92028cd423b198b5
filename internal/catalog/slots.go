package catalog

import (
	"math"

	"repro/internal/types"
)

// This file is the routing slot table: ownership of the hash space as
// data instead of arithmetic. A key hashes to one of NumSlots slots and
// the slot maps to its owning partition, so moving a slot between
// partitions (elastic repartitioning) is a table update, not a rehash of
// every row. The table is the single source of routing truth — ingest,
// keyed procedure calls, DML routing, and keyed reads all resolve
// ownership through it. It is not a file: recovery derives ownership from
// the log's slot-commit records and then routes canonically.

// NumSlots is the fixed size of the slot table. 256 slots bound migration
// granularity to 1/256th of the keyspace per move while keeping the table
// trivially small. Whenever the partition count divides NumSlots, the
// initial assignment slot%N routes identically to the historical
// hash%N arithmetic (hash%N == (hash%256)%N for N | 256).
const NumSlots = 256

// SlotTable maps hash slots to owning partitions. Tables are treated as
// immutable once published: rebalancing builds a modified copy and swaps
// it in atomically, so concurrent readers never see a half-updated map.
type SlotTable struct {
	// Owner[slot] is the partition index owning the slot.
	Owner [NumSlots]uint16
}

// NewSlotTable builds the canonical assignment for a fresh store of n
// partitions: Owner[slot] = slot % n. Rebalance converges to the same
// assignment for its target count, so a grown store routes identically to
// a store created at the larger count.
func NewSlotTable(n int) *SlotTable {
	if n < 1 {
		n = 1
	}
	t := &SlotTable{}
	for s := range t.Owner {
		t.Owner[s] = uint16(s % n)
	}
	return t
}

// Clone returns a modifiable copy (the table itself is published
// immutably).
func (t *SlotTable) Clone() *SlotTable {
	c := *t
	return &c
}

// SlotOf maps a partition-key value to its slot.
func SlotOf(v types.Value) int {
	return int(PartitionHash(v) % NumSlots)
}

// Partition maps a partition-key value to its owning partition.
func (t *SlotTable) Partition(v types.Value) int {
	return int(t.Owner[SlotOf(v)])
}

// Moves lists the slots that must change owner to reach the canonical
// assignment for target partitions, in slot order. Each entry is a slot
// whose current owner differs from slot % target.
func (t *SlotTable) Moves(target int) []SlotMove {
	var moves []SlotMove
	for s := range t.Owner {
		want := uint16(s % target)
		if t.Owner[s] != want {
			moves = append(moves, SlotMove{Slot: s, From: int(t.Owner[s]), To: int(want)})
		}
	}
	return moves
}

// SlotMove is one planned ownership change.
type SlotMove struct {
	Slot int
	From int
	To   int
}

// PartitionHash is FNV-1a over a canonical encoding of the value,
// collapsing BIGINT 2 and FLOAT 2.0 the way Value.Compare equality does.
// It is deterministic across processes (unlike types.Value.Hash, which is
// seeded per process) because a row routed to slot k before a crash must
// still hash to slot k after recovery.
func PartitionHash(v types.Value) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	mix64 := func(u uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	}
	switch v.Type() {
	case types.TypeNull:
		mix(0)
	case types.TypeBool:
		mix(1)
		if v.Bool() {
			mix(1)
		} else {
			mix(0)
		}
	case types.TypeInt, types.TypeFloat:
		mix(2)
		f := v.Float()
		if f == math.Trunc(f) && !math.IsInf(f, 0) && f >= -1e15 && f <= 1e15 {
			mix64(uint64(int64(f)))
		} else {
			mix64(math.Float64bits(f))
		}
	case types.TypeString:
		mix(3)
		for i := 0; i < len(v.Str()); i++ {
			mix(v.Str()[i])
		}
	case types.TypeTimestamp:
		mix(4)
		mix64(uint64(v.Timestamp()))
	}
	return h
}

package catalog

import (
	"testing"

	"repro/internal/types"
)

// TestSlotOfGolden pins the cross-process routing contract: PartitionHash
// and SlotOf are part of the on-disk format (a row routed to slot k before
// a crash must hash to slot k after recovery, possibly in a different
// process), so these values must never change. If this test fails, the
// hash changed and every existing data directory routes wrong.
func TestSlotOfGolden(t *testing.T) {
	cases := []struct {
		name string
		v    types.Value
		slot int
		hash uint64
	}{
		{"null", types.Null, 223, 12638153115695167455},
		{"int 0", types.NewInt(0), 229, 925820630484784613},
		{"int 1", types.NewInt(1), 196, 17140249297226746820},
		{"int 7", types.NewInt(7), 130, 12675618483291568002},
		{"int 42", types.NewInt(42), 79, 2449347354575781711},
		{"int -5", types.NewInt(-5), 217, 17997980881769448409},
		{"int 1e6", types.NewInt(1_000_000), 104, 5438647664806262632},
		{"string empty", types.NewString(""), 146, 12638154215206795666},
		{"string a", types.NewString("a"), 233, 591747295564724201},
		{"string phone", types.NewString("555-0100"), 33, 11260539849802629665},
		{"bool true", types.NewBool(true), 119, 589728592215707255},
	}
	for _, c := range cases {
		if got := PartitionHash(c.v); got != c.hash {
			t.Errorf("%s: PartitionHash = %d want %d", c.name, got, c.hash)
		}
		if got := SlotOf(c.v); got != c.slot {
			t.Errorf("%s: SlotOf = %d want %d", c.name, got, c.slot)
		}
	}
	// BIGINT 2 and FLOAT 2.0 compare equal, so they must route together.
	if SlotOf(types.NewInt(2)) != SlotOf(types.NewFloat(2.0)) {
		t.Errorf("int 2 and float 2.0 route apart: %d vs %d",
			SlotOf(types.NewInt(2)), SlotOf(types.NewFloat(2.0)))
	}
}

func TestNewSlotTableCanonical(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 256, 300} {
		st := NewSlotTable(n)
		for s, o := range st.Owner {
			want := uint16(s % n)
			if o != want {
				t.Fatalf("NewSlotTable(%d).Owner[%d] = %d want %d", n, s, o, want)
			}
		}
	}
	// For N dividing 256, slot routing equals the historical hash%N
	// arithmetic, so stores created before the slot table route unchanged.
	for _, n := range []int{1, 2, 4, 8, 16} {
		st := NewSlotTable(n)
		for _, v := range []types.Value{types.NewInt(12345), types.NewString("x"), types.Null} {
			if got, want := st.Partition(v), int(PartitionHash(v)%uint64(n)); got != want {
				t.Fatalf("n=%d Partition(%v) = %d want %d (hash%%N compat)", n, v, got, want)
			}
		}
	}
	// Clone is independent of its source.
	st := NewSlotTable(4)
	st.Clone().Owner[17] = 3
	if st.Owner[17] != 1 {
		t.Fatalf("Clone mutated source: Owner[17] = %d", st.Owner[17])
	}
}

func TestSlotTableMoves(t *testing.T) {
	st := NewSlotTable(2)
	moves := st.Moves(4)
	// Growing 2 -> 4: slots s with s%4 in {2,3} change owner — half of all.
	if len(moves) != NumSlots/2 {
		t.Fatalf("moves = %d want %d", len(moves), NumSlots/2)
	}
	for _, mv := range moves {
		if mv.From != mv.Slot%2 || mv.To != mv.Slot%4 || mv.From == mv.To {
			t.Fatalf("bad move %+v", mv)
		}
	}
	if got := NewSlotTable(4).Moves(4); len(got) != 0 {
		t.Fatalf("no-op moves = %v", got)
	}
}

package wal

import (
	"errors"
	"io"
	"io/fs"
	"path/filepath"

	"repro/internal/catalog"
)

// DefaultSlotsName is the routing slot table's file in the durability
// directory. The file is the checkpointed base: slot moves committed since
// the last checkpoint live as records in the coordinator log and are
// re-applied on top of it during recovery.
const DefaultSlotsName = "slots.tbl"

// SlotsPath returns the slot-table file path for a durability directory.
func SlotsPath(dir string) string { return filepath.Join(dir, DefaultSlotsName) }

// ErrNoSlots reports that no slot-table file exists (fresh directory or
// one written before slot routing; callers fall back to the canonical
// assignment for the stamped partition count).
var ErrNoSlots = errors.New("wal: no slot table")

// WriteSlots durably replaces the slot table at path, a file in d (CRC
// trailer like the snapshots).
func WriteSlots(d *Dir, path string, t *catalog.SlotTable) error {
	return d.Replace(path, withCRC(func(w io.Writer) error {
		_, err := w.Write(t.Encode())
		return err
	}))
}

// LoadSlots reads a persisted slot table.
func LoadSlots(path string) (*catalog.SlotTable, error) {
	body, err := readChecked(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoSlots
	}
	if err != nil {
		return nil, err
	}
	return catalog.DecodeSlotTable(body)
}

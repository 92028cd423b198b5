package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"slices"

	"repro/internal/catalog"
	"repro/internal/pe"
	"repro/internal/storage"
	"repro/internal/types"
)

// Snapshot is a snapshot's metadata: the LSN through which the command log
// has been applied, the border batch counter, and the records a log cannot
// re-derive once its prefix is dropped. Relation data and each window's
// slide state travel in the file beside it. Schema/DDL is not stored:
// applications re-issue their DDL at startup and the snapshot only restores
// data (the H-Store model, where the catalog is part of the deployment).
type Snapshot struct {
	LastLSN     uint64
	NextBatchID uint64
	// Records is the snapshot's trailing section, in the log's record
	// encoding: a RecPauseGraph per paused graph (partition 0), then a
	// RecTriggered per deferred execution, in the order it was deferred.
	// A snapshot with none has no section, byte for byte as earlier
	// versions wrote it.
	Records []*pe.LogRecord
}

// Cut is one partition's state at a checkpoint's cut. TakeCut captures it
// while the partition's worker is held; WriteSnapshot encodes it afterwards
// on any goroutine, reading each table at Pin, which the caller releases
// once the write returns. What is not versioned, each window's slide
// state, is copied at the cut.
type Cut struct {
	Snapshot
	Pin  storage.SnapPin
	rels []cutRelation
}

type cutRelation struct {
	name  string
	kind  catalog.RelationKind
	table *storage.Table
	win   *catalog.WindowState // a copy; windows only
}

// TakeCut captures cat's relations for a snapshot at pin with meta. The
// caller holds the partition's worker.
func TakeCut(cat *catalog.Catalog, pin storage.SnapPin, meta Snapshot) *Cut {
	c := &Cut{Snapshot: meta, Pin: pin}
	for _, name := range cat.Names() {
		rel := cat.Relation(name)
		cr := cutRelation{name: rel.Name, kind: rel.Kind, table: rel.Table}
		if rel.Win != nil {
			win := *rel.Win
			win.Staged = slices.Clone(win.Staged)
			cr.win = &win
		}
		c.rels = append(c.rels, cr)
	}
	return c
}

const snapshotMagic = 0x53535451 // "SSTQ"

// WriteSnapshot durably replaces the snapshot at path, a file in d, with
// the cut c; a CRC-32 trailer covers the whole image.
func WriteSnapshot(d *Dir, path string, c *Cut) error {
	return d.Replace(path, withCRC(func(w io.Writer) error {
		// w is buffered and keeps its first error, which Replace's flush
		// reports: the writes below need no checks of their own.
		u64 := make([]byte, 8)
		writeU64 := func(v uint64) {
			binary.LittleEndian.PutUint64(u64, v)
			w.Write(u64)
		}
		writeBytes := func(p []byte) {
			writeU64(uint64(len(p)))
			w.Write(p)
		}
		writeU64(snapshotMagic)
		writeU64(c.LastLSN)
		writeU64(c.NextBatchID)

		writeU64(uint64(len(c.rels)))
		var rows []types.Row
		for _, rel := range c.rels {
			writeBytes([]byte(rel.name))
			writeU64(uint64(rel.kind))
			rows = rows[:0]
			rel.table.SnapshotScan(c.Pin.Seq(), func(_ storage.RowID, row types.Row) bool {
				rows = append(rows, row)
				return true
			})
			writeBytes(types.EncodeRows(nil, rows))
			if win := rel.win; win != nil {
				writeU64(uint64(win.Admitted))
				writeU64(uint64(win.Watermark))
				writeU64(uint64(win.SlideCount))
				writeBytes([]byte(win.OwnerProc))
				writeBytes(types.EncodeRows(nil, win.Staged))
			}
		}
		if len(c.Records) > 0 {
			writeU64(uint64(len(c.Records)))
			for _, rec := range c.Records {
				writeBytes(EncodeRecord(rec))
			}
		}
		return nil
	}))
}

// ErrNoSnapshot reports that no snapshot file exists.
var ErrNoSnapshot = errors.New("wal: no snapshot")

// LoadSnapshot restores relation data into an already-DDL'd catalog and
// returns the snapshot metadata. Relations present in the snapshot but
// missing from the catalog are an error (the deployment changed
// incompatibly); relations in the catalog but not the snapshot are left
// empty.
func LoadSnapshot(path string, cat *catalog.Catalog) (Snapshot, error) {
	body, err := readChecked(path)
	if errors.Is(err, fs.ErrNotExist) {
		return Snapshot{}, ErrNoSnapshot
	}
	if err != nil {
		return Snapshot{}, err
	}
	r := &snapshotReader{buf: body}
	if r.u64() != snapshotMagic {
		return Snapshot{}, fmt.Errorf("wal: not a snapshot file")
	}
	var meta Snapshot
	meta.LastLSN = r.u64()
	meta.NextBatchID = r.u64()
	for n := r.u64(); n > 0 && r.err == nil; n-- {
		name, kind, payload := string(r.bytes()), catalog.RelationKind(r.u64()), r.bytes()
		if r.err != nil {
			break
		}
		rel := cat.Relation(name)
		if rel == nil {
			return Snapshot{}, fmt.Errorf("wal: snapshot relation %q missing from catalog (run DDL before recovery)", name)
		}
		if rel.Kind != kind {
			return Snapshot{}, fmt.Errorf("wal: snapshot relation %q kind mismatch", name)
		}
		rows, _, err := types.DecodeRows(payload)
		if err != nil {
			return Snapshot{}, fmt.Errorf("wal: snapshot rows of %q: %w", name, err)
		}
		rel.Table.Truncate(nil)
		for _, row := range rows {
			if _, err := rel.Table.Insert(row, nil); err != nil {
				return Snapshot{}, fmt.Errorf("wal: snapshot restore %q: %w", name, err)
			}
		}
		if win := rel.Win; win != nil {
			win.Admitted, win.Watermark, win.SlideCount = int64(r.u64()), int64(r.u64()), int64(r.u64())
			win.OwnerProc = string(r.bytes())
			if win.Staged, _, err = types.DecodeRows(r.bytes()); err != nil {
				return Snapshot{}, err
			}
		}
	}
	if len(r.buf) > 0 { // the trailing section
		for n := r.u64(); n > 0 && r.err == nil; n-- {
			rec, err := DecodeRecord(r.bytes())
			if err != nil {
				return Snapshot{}, fmt.Errorf("wal: snapshot record: %w", err)
			}
			meta.Records = append(meta.Records, rec)
		}
	}
	if r.err != nil {
		return Snapshot{}, r.err
	}
	return meta, nil
}

// snapshotReader decodes a snapshot body; past its first short read every
// read yields zero and err is io.ErrUnexpectedEOF.
type snapshotReader struct {
	buf []byte
	err error
}

func (r *snapshotReader) u64() uint64 {
	if len(r.buf) < 8 {
		r.err, r.buf = io.ErrUnexpectedEOF, nil
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *snapshotReader) bytes() []byte {
	n := r.u64()
	if uint64(len(r.buf)) < n {
		r.err, r.buf = io.ErrUnexpectedEOF, nil
		return nil
	}
	p := r.buf[:n]
	r.buf = r.buf[n:]
	return p
}

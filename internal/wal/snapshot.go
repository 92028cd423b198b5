package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"repro/internal/catalog"
	"repro/internal/types"
)

// Snapshot captures the full data state at a quiescent point: every
// relation's rows, each window's slide bookkeeping, the border batch
// counter, and the LSN up to which the command log has been applied.
// Schema/DDL is not stored: applications re-issue their DDL at startup and
// the snapshot only restores data (the H-Store model, where the catalog is
// part of the deployment).
type Snapshot struct {
	LastLSN     uint64
	NextBatchID uint64
}

const snapshotMagic = 0x53535451 // "SSTQ"

// WriteSnapshot durably replaces the snapshot at path, a file in d, with
// the state of cat; a CRC-32 trailer covers the whole image.
func WriteSnapshot(d *Dir, path string, cat *catalog.Catalog, meta Snapshot) error {
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
		writeU64(meta.LastLSN)
		writeU64(meta.NextBatchID)

		names := cat.Names()
		writeU64(uint64(len(names)))
		for _, name := range names {
			rel := cat.Relation(name)
			writeBytes([]byte(rel.Name))
			writeU64(uint64(rel.Kind))
			writeBytes(types.EncodeRows(nil, rel.Table.ScanRows()))
			if rel.Kind == catalog.KindWindow {
				win := rel.Win
				writeU64(uint64(win.Admitted))
				writeU64(uint64(win.Watermark))
				writeU64(uint64(win.SlideCount))
				writeBytes([]byte(win.OwnerProc))
				writeBytes(types.EncodeRows(nil, win.Staged))
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

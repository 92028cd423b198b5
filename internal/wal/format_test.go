package wal

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/pe"
	"repro/internal/types"
)

// TestDurableFormatsUnchanged pins the bytes of every durable file wal
// writes — a log frame and a snapshot of two relations (one a window),
// without and with a trailing section for a paused graph and a deferred
// execution — and of the records whose kinds outlived the coordinator log
// or came after it (an earlier version's two-phase kinds, and a coordinated
// commit with two legs and as a slot move), and reads each golden image
// back, so a directory an earlier version wrote opens unchanged — and of a
// record tagged with its partition, as a store's one log carries it.
func TestDurableFormatsUnchanged(t *testing.T) {
	dir := t.TempDir()
	d := NewDir(dir, OS)
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(b)
	}

	logPath := filepath.Join(dir, LogName)
	l, err := d.OpenLog(logPath, 41, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("golden")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := read(logPath); got != goldenFrame {
		t.Errorf("log frame is %s, want %s", got, goldenFrame)
	}
	for _, g := range []struct {
		hex string
		rec pe.LogRecord
	}{
		{"04017000000000070200017101020201017401010204", pe.LogRecord{Kind: pe.RecPrepare, Proc: "p", MPTxnID: 7, Ops: []pe.LoggedOp{
			{SQL: "q", Params: []types.Value{types.NewInt(1)}}, {Table: "t", Rows: []types.Row{{types.NewInt(2)}}}}}},
		{"0500000000000701", pe.LogRecord{Kind: pe.RecDecide, MPTxnID: 7, Commit: true}},
		{"0500000000000700", pe.LogRecord{Kind: pe.RecDecide, MPTxnID: 7}},
		{"08000000000005010207", pe.LogRecord{Kind: pe.RecSlotCommit, Slot: 5, FromPart: 1, ToPart: 2, MPTxnID: 7}},
		{"09016700000000", pe.LogRecord{Kind: pe.RecPauseGraph, Proc: "g"}},
		{"0a016700000000", pe.LogRecord{Kind: pe.RecResumeGraph, Proc: "g"}},
		{"0b017003017300010202020214", pe.LogRecord{Kind: pe.RecAborted, Proc: "p", BatchID: 3, InputStream: "s",
			Batch: []types.Row{{types.NewInt(1), types.NewInt(10)}}}},
		{"0c0170000000000702000100017101020202010101740101020400", pe.LogRecord{Kind: pe.RecCoordCommit, Proc: "p", MPTxnID: 7, Legs: []pe.Leg{
			{Part: 0, Ops: []pe.LoggedOp{{SQL: "q", Params: []types.Value{types.NewInt(1)}}}},
			{Part: 2, Ops: []pe.LoggedOp{{Table: "t", Rows: []types.Row{{types.NewInt(2)}}}}}}}},
		{"0c06404164486f63000000000901020001050102", pe.LogRecord{Kind: pe.RecCoordCommit, Proc: "@AdHoc", MPTxnID: 9, Legs: []pe.Leg{{Part: 2}},
			Move: true, Slot: 5, FromPart: 1, ToPart: 2}},
	} {
		if got := hex.EncodeToString(EncodeRecord(&g.rec)); got != g.hex {
			t.Errorf("record %+v encodes as %s, want %s", g.rec, got, g.hex)
		}
		b, _ := hex.DecodeString(g.hex)
		if rec, err := DecodeRecord(b); err != nil || fmt.Sprint(*rec) != fmt.Sprint(g.rec) {
			t.Errorf("golden record %s decodes as %+v, %v", g.hex, rec, err)
		}
	}

	// A record as a store's one log carries it: its partition as a uvarint,
	// then the record.
	if got := hex.EncodeToString(AppendRecord(binary.AppendUvarint(nil, 2), &pe.LogRecord{Kind: pe.RecDecide, MPTxnID: 7, Commit: true})); got != goldenTagged {
		t.Errorf("tagged record encodes as %s, want %s", got, goldenTagged)
	}
	b, _ := hex.DecodeString(goldenTagged)
	if part, n := binary.Uvarint(b); part != 2 || n != 1 {
		t.Errorf("golden tagged record names partition %d (%d bytes)", part, n)
	} else if rec, err := DecodeRecord(b[n:]); err != nil || rec.Kind != pe.RecDecide || rec.MPTxnID != 7 || !rec.Commit {
		t.Errorf("golden tagged record decodes as %+v, %v", rec, err)
	}

	cat := goldenCatalog(t)
	cat.Relation("st").Table.Insert(types.Row{types.NewInt(5)}, nil)
	w := cat.Relation("w")
	w.Table.Insert(types.Row{types.NewInt(4)}, nil)
	w.Win.Admitted, w.Win.Watermark, w.Win.SlideCount = 2, 9, 1
	w.Win.OwnerProc = "sp"
	w.Win.Staged = []types.Row{{types.NewInt(6)}}
	snapPath := filepath.Join(dir, SnapshotName)
	meta := Snapshot{LastLSN: 7, NextBatchID: 3}
	if err := WriteSnapshot(d, snapPath, cutOf(cat, meta)); err != nil {
		t.Fatal(err)
	}
	if got := read(snapPath); got != goldenSnapshot {
		t.Errorf("snapshot is %s, want %s", got, goldenSnapshot)
	}
	// The same state with a paused graph and a deferred execution: the
	// image gains a trailing section of their records.
	held := meta
	held.Records = []*pe.LogRecord{{Kind: pe.RecPauseGraph, Proc: "g"}, {Kind: pe.RecTriggered, Proc: "p",
		BatchID: 3, InputStream: "st", Batch: []types.Row{{types.NewInt(5)}}}}
	heldPath := filepath.Join(dir, "held.bin")
	if err := WriteSnapshot(d, heldPath, cutOf(cat, held)); err != nil {
		t.Fatal(err)
	}
	if got := read(heldPath); got != goldenHeldSnapshot {
		t.Errorf("snapshot with held work is %s, want %s", got, goldenHeldSnapshot)
	}

	// The golden images, written by hand, read back.
	old := t.TempDir()
	for name, h := range map[string]string{LogName: goldenFrame, SnapshotName: goldenSnapshot, "held.bin": goldenHeldSnapshot} {
		b, _ := hex.DecodeString(h)
		if err := os.WriteFile(filepath.Join(old, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var frames []string
	if last, err := ScanLog(filepath.Join(old, LogName), func(lsn uint64, p []byte) error {
		frames = append(frames, string(p))
		return nil
	}); err != nil || last != 42 || len(frames) != 1 || frames[0] != "golden" {
		t.Errorf("golden log scans as %q up to LSN %d, %v", frames, last, err)
	}
	for name, want := range map[string]Snapshot{SnapshotName: meta, "held.bin": held} {
		cat2 := goldenCatalog(t)
		if got, err := LoadSnapshot(filepath.Join(old, name), cat2); err != nil || snapshotString(got) != snapshotString(want) {
			t.Errorf("golden %s loads as %+v, %v", name, got, err)
		}
		w2 := cat2.Relation("w")
		if cat2.Relation("st").Table.Count() != 1 || w2.Table.Count() != 1 || w2.Win.Admitted != 2 ||
			w2.Win.Watermark != 9 || w2.Win.SlideCount != 1 || w2.Win.OwnerProc != "sp" || len(w2.Win.Staged) != 1 {
			t.Errorf("golden %s restored %+v", name, w2.Win)
		}
	}
}

// snapshotString renders a snapshot's metadata, each record as its
// encoding.
func snapshotString(s Snapshot) string {
	out := fmt.Sprint(s.LastLSN, " ", s.NextBatchID)
	for _, rec := range s.Records {
		out += " " + hex.EncodeToString(EncodeRecord(rec))
	}
	return out
}

// goldenCatalog is a stream and a row window over it.
func goldenCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	sch := cat.Schema().Clone()
	if _, err := sch.Create(catalog.KindStream, types.MustSchema("st", []types.Column{{Name: "v", Type: types.TypeInt}}, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := sch.CreateWindow("w", catalog.WindowSpec{Rows: true, Size: 3, Slide: 1, Source: "st"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Sync(sch); err != nil {
		t.Fatal(err)
	}
	return cat
}

const (
	goldenTagged       = "020500000000000701"
	goldenFrame        = "0e00000000fcd54c2a00000000000000676f6c64656e"
	goldenHeldSnapshot = "515453530000000007000000000000000300000000000000020000000000000002000000000000007374010000000000000004000000000000000101020a01000000000000007702000000000000000400000000000000010102080200000000000000090000000000000001000000000000000200000000000000737004000000000000000101020c02000000000000000700000000000000090167000000000c0000000000000003017003027374000101020ab2e0aeb5"
	goldenSnapshot     = "515453530000000007000000000000000300000000000000020000000000000002000000000000007374010000000000000004000000000000000101020a01000000000000007702000000000000000400000000000000010102080200000000000000090000000000000001000000000000000200000000000000737004000000000000000101020cded9e764"
)

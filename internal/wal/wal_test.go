package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/pe"
	"repro/internal/types"
)

func TestLogAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	l, err := OpenLogOpts(path, 0, Options{Policy: SyncEveryRecord})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("one"), []byte(""), []byte("three")}
	for i, p := range payloads {
		lsn, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d", lsn)
		}
	}
	l.Close()
	var got [][]byte
	var lsns []uint64
	last, err := ScanLog(path, func(lsn uint64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		lsns = append(lsns, lsn)
		return nil
	})
	if err != nil || last != 3 {
		t.Fatalf("scan: last=%d err=%v", last, err)
	}
	for i, l := range lsns {
		if l != uint64(i+1) {
			t.Fatalf("lsns = %v", lsns)
		}
	}
	for i := range payloads {
		if string(got[i]) != string(payloads[i]) {
			t.Fatalf("payload %d = %q", i, got[i])
		}
	}
}

func TestScanMissingFile(t *testing.T) {
	last, err := ScanLog(filepath.Join(t.TempDir(), "none.log"), func(uint64, []byte) error { return nil })
	if err != nil || last != 0 {
		t.Fatalf("missing file: last=%d err=%v", last, err)
	}
}

func TestScanStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	l, _ := OpenLogOpts(path, 0, Options{Policy: SyncNever})
	_, _ = l.Append([]byte("good-record"))
	_, _ = l.Append([]byte("will-be-torn"))
	l.Close()
	// Tear the last record.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	last, err := ScanLog(path, func(uint64, []byte) error { n++; return nil })
	if err != nil || n != 1 || last != 1 {
		t.Fatalf("torn tail: n=%d last=%d err=%v", n, last, err)
	}
	// Corrupt the first record's payload: nothing survives.
	data, _ = os.ReadFile(path)
	data[17] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	n = 0
	last, _ = ScanLog(path, func(uint64, []byte) error { n++; return nil })
	if n != 0 || last != 0 {
		t.Fatalf("corrupt record accepted: n=%d", n)
	}
}

func TestLogTruncateKeepsLSN(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	l, _ := OpenLogOpts(path, 0, Options{Policy: SyncNever})
	_, _ = l.Append([]byte("a"))
	_, _ = l.Append([]byte("b"))
	if err := l.Truncate(l.End()); err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.Append([]byte("c"))
	if lsn != 3 {
		t.Fatalf("post-truncate lsn = %d", lsn)
	}
	l.Close()
	n := 0
	last, _ := ScanLog(path, func(lsn uint64, p []byte) error {
		if string(p) != "c" || lsn != 3 {
			t.Fatalf("record: lsn=%d %q", lsn, p)
		}
		n++
		return nil
	})
	if n != 1 || last != 3 {
		t.Fatalf("n=%d last=%d", n, last)
	}
}

// TestTruncateBackKeepsLastRecord truncates to End().Back(), as a
// checkpoint does: the segment keeps the cut's last record, also after a
// reopen (which finds that record's frame by scanning), and keeps nothing
// when it never held the record at its start LSN.
func TestTruncateBackKeepsLastRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	lsns := func() (got []uint64) {
		if _, err := ScanLog(path, func(lsn uint64, p []byte) error {
			if string(p) != string(rune('a'+lsn-1)) {
				t.Fatalf("LSN %d holds %q", lsn, p)
			}
			got = append(got, lsn)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	step := func(start uint64, appends string, want string) {
		t.Helper()
		l, err := OpenLogOpts(path, start, Options{Policy: SyncEveryRecord})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range appends {
			if _, err := l.Append([]byte{byte(p)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Truncate(l.End().Back()); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(lsns()); got != want {
			t.Fatalf("after truncating at LSN %d the log holds %s, want %s", start+uint64(len(appends)), got, want)
		}
	}
	step(0, "", "[]")
	step(0, "ab", "[2]")
	step(2, "", "[2]") // reopened: the frame of LSN 2 is found by scanning
	step(2, "cd", "[4]")
	step(5, "", "[]") // the segment does not hold LSN 5
	step(5, "fg", "[7]")
}

// TestReopenAfterTornTail reopens a log whose last frame a crash tore: the
// records appended after the reopen follow the last intact one, so a scan
// reaches them, and a later Truncate keeps the records after its position
// without reading the bytes before it.
func TestReopenAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := OpenLogOpts(path, 0, Options{Policy: SyncNever})
	_, _ = l.Append([]byte("a"))
	_, _ = l.Append([]byte("b"))
	l.Close()
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	lsns := func() (got []uint64) {
		if _, err := ScanLog(path, func(lsn uint64, p []byte) error {
			if string(p) != string(rune('a'+lsn-1)) {
				t.Fatalf("LSN %d holds %q", lsn, p)
			}
			got = append(got, lsn)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	l, err := OpenLogOpts(path, 1, Options{Policy: SyncEveryRecord})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"b", "c"} {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if got := lsns(); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("after the reopen the log holds LSNs %v", got)
	}
	at := l.End()
	if _, err := l.Append([]byte("d")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first frame: Truncate never reads it.
	data, _ = os.ReadFile(path)
	data[17] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(at); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("e")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := lsns(); fmt.Sprint(got) != "[4 5]" {
		t.Fatalf("after the truncate the log holds LSNs %v", got)
	}
}

func TestRecordCodec(t *testing.T) {
	recs := []*pe.LogRecord{
		{Kind: pe.RecCall, Proc: "bump", Params: []types.Value{types.NewInt(7), types.NewString("x")}},
		{Kind: pe.RecBorder, Proc: "sp1", BatchID: 42,
			Batch: []types.Row{{types.NewInt(1)}, {types.NewString("naïve")}}},
		{Kind: pe.RecTriggered, Proc: "sp2", BatchID: 9, InputStream: "mid_s",
			Batch: []types.Row{{types.Null, types.NewFloat(2.5)}}},
		{Kind: pe.RecCall, Proc: "noargs"},
	}
	for _, rec := range recs {
		got, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Kind != rec.Kind || got.Proc != rec.Proc || got.BatchID != rec.BatchID ||
			got.InputStream != rec.InputStream {
			t.Fatalf("header mismatch: %+v vs %+v", got, rec)
		}
		if len(got.Params) != len(rec.Params) || len(got.Batch) != len(rec.Batch) {
			t.Fatalf("payload arity: %+v", got)
		}
		for i := range rec.Params {
			if !got.Params[i].Equal(rec.Params[i]) {
				t.Fatalf("param %d", i)
			}
		}
		for i := range rec.Batch {
			if !got.Batch[i].Equal(rec.Batch[i]) {
				t.Fatalf("batch row %d", i)
			}
		}
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := DecodeRecord([]byte{1, 0xFF}); err == nil {
		t.Error("garbage record accepted")
	}
}

func snapshotCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	sch := cat.Schema().Clone()
	tblSchema := types.MustSchema("t", []types.Column{
		{Name: "id", Type: types.TypeInt, NotNull: true},
		{Name: "s", Type: types.TypeString},
	}, []string{"id"})
	if _, err := sch.Create(catalog.KindTable, tblSchema); err != nil {
		t.Fatal(err)
	}
	strSchema := types.MustSchema("st", []types.Column{
		{Name: "v", Type: types.TypeInt},
	}, nil)
	if _, err := sch.Create(catalog.KindStream, strSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := sch.CreateWindow("w", catalog.WindowSpec{Rows: true, Size: 5, Slide: 2, Source: "st"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Sync(sch); err != nil {
		t.Fatal(err)
	}
	return cat
}

// cutOf publishes what a test wrote into cat and takes its cut.
func cutOf(cat *catalog.Catalog, meta Snapshot) *Cut {
	cat.Clock().Publish()
	return TakeCut(cat, cat.Clock().AcquireSnapshot(), meta)
}

func TestSnapshotRoundTrip(t *testing.T) {
	cat := snapshotCatalog(t)
	tbl := cat.Relation("t").Table
	for i := int64(0); i < 10; i++ {
		if _, err := tbl.Insert(types.Row{types.NewInt(i), types.NewString("row")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	w := cat.Relation("w")
	w.Table.Insert(types.Row{types.NewInt(1)}, nil)
	w.Win.Admitted = 7
	w.Win.Watermark = 123
	w.Win.SlideCount = 3
	w.Win.OwnerProc = "sp2"
	w.Win.Staged = []types.Row{{types.NewInt(9)}}

	path := filepath.Join(t.TempDir(), "snap.bin")
	meta := Snapshot{LastLSN: 55, NextBatchID: 17}
	if err := WriteSnapshot(NewDir(filepath.Dir(path), OS), path, cutOf(cat, meta)); err != nil {
		t.Fatal(err)
	}

	cat2 := snapshotCatalog(t)
	// Pre-populate with junk the restore must clear.
	cat2.Relation("t").Table.Insert(types.Row{types.NewInt(999), types.Null}, nil)
	got, err := LoadSnapshot(path, cat2)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastLSN != meta.LastLSN || got.NextBatchID != meta.NextBatchID || got.Records != nil {
		t.Fatalf("meta = %+v", got)
	}
	if n := cat2.Relation("t").Table.Count(); n != 10 {
		t.Fatalf("restored %d rows", n)
	}
	w2 := cat2.Relation("w")
	if w2.Win.Admitted != 7 || w2.Win.Watermark != 123 || w2.Win.SlideCount != 3 ||
		w2.Win.OwnerProc != "sp2" || len(w2.Win.Staged) != 1 {
		t.Fatalf("window state: %+v", w2.Win)
	}
	if w2.Table.Count() != 1 {
		t.Fatal("window rows lost")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	cat := snapshotCatalog(t)
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := WriteSnapshot(NewDir(filepath.Dir(path), OS), path, cutOf(cat, Snapshot{})); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x55
	os.WriteFile(path, data, 0o644)
	if _, err := LoadSnapshot(path, snapshotCatalog(t)); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestSnapshotMissingRelationRejected(t *testing.T) {
	cat := snapshotCatalog(t)
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := WriteSnapshot(NewDir(filepath.Dir(path), OS), path, cutOf(cat, Snapshot{})); err != nil {
		t.Fatal(err)
	}
	empty := catalog.New()
	if _, err := LoadSnapshot(path, empty); err == nil {
		t.Fatal("snapshot into empty catalog accepted")
	}
}

func TestLoadSnapshotMissingFile(t *testing.T) {
	if _, err := LoadSnapshot(filepath.Join(t.TempDir(), "none"), catalog.New()); err != ErrNoSnapshot {
		t.Fatalf("err = %v", err)
	}
}

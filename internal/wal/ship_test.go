package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadFramesTailAndResume covers the shipping primitives: full read,
// cursor resume, byte-budgeted batches with a horizon skim, a missing
// segment, and the torn-tail stop.
func TestReadFramesTailAndResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ship.log")
	l, err := OpenLogOpts(path, 0, Options{Policy: SyncEveryRecord})
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i := 0; i < 10; i++ {
		p := []byte{byte('a' + i), byte('a' + i)}
		payloads = append(payloads, p)
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Full read from the start.
	frames, end, err := ReadFrames(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 10 || end != 10 {
		t.Fatalf("full read: %d frames, end %d", len(frames), end)
	}
	for i, fr := range frames {
		if fr.LSN != uint64(i+1) || string(fr.Payload) != string(payloads[i]) {
			t.Fatalf("frame %d: lsn=%d payload=%q", i, fr.LSN, fr.Payload)
		}
	}

	// Resume from a mid-segment cursor.
	frames, end, err = ReadFrames(path, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 || frames[0].LSN != 8 || end != 10 {
		t.Fatalf("resume: %d frames, first %d, end %d", len(frames), frames[0].LSN, end)
	}

	// A caught-up cursor sees no frames but the full horizon.
	frames, end, err = ReadFrames(path, 10, 0)
	if err != nil || len(frames) != 0 || end != 10 {
		t.Fatalf("caught up: %d frames, end %d, err %v", len(frames), end, err)
	}

	// A tiny byte budget truncates the batch (at least one frame ships) but
	// still skims the horizon for lag accounting.
	frames, end, err = ReadFrames(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || end != 10 {
		t.Fatalf("budgeted: %d frames, end %d", len(frames), end)
	}

	// Missing segment: empty, no error (the primary has not written yet).
	frames, end, err = ReadFrames(filepath.Join(dir, "none.log"), 0, 0)
	if err != nil || frames != nil || end != 0 {
		t.Fatalf("missing: %v %d %v", frames, end, err)
	}

	// A torn tail (half a frame) stops the read silently at the last intact
	// record — exactly ScanLog's rule.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	frames, end, err = ReadFrames(path, 0, 0)
	if err != nil || len(frames) != 9 || end != 9 {
		t.Fatalf("torn tail: %d frames, end %d, err %v", len(frames), end, err)
	}
}

// TestReadFramesGapAfterTruncate pins the re-seed contract: a checkpoint
// truncation restarts the segment at a later LSN, and a reader positioned
// before the restart must get ErrShipGap — not silently skip the hole.
func TestReadFramesGapAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gap.log")
	l, err := OpenLogOpts(path, 0, Options{Policy: SyncEveryRecord})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(l.End()); err != nil {
		t.Fatal(err)
	}
	// LSNs continue past the truncation; the file now starts at 6.
	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A reader at LSN 2 has lost records 3..5: gap.
	if _, _, err := ReadFrames(path, 2, 0); !errors.Is(err, ErrShipGap) {
		t.Fatalf("gap err = %v, want ErrShipGap", err)
	}
	// A reader exactly at the truncation point resumes cleanly.
	frames, end, err := ReadFrames(path, 5, 0)
	if err != nil || len(frames) != 1 || frames[0].LSN != 6 || end != 6 {
		t.Fatalf("resume at cut: %v %d %v", frames, end, err)
	}
	// A fresh reader (afterLSN 0) has lost records 1..5: a gap too, not the
	// surviving suffix shipped as if it were the whole log.
	if frames, _, err := ReadFrames(path, 0, 0); !errors.Is(err, ErrShipGap) {
		t.Fatalf("fresh attach: %v %v, want ErrShipGap", frames, err)
	}
}

// TestReadFramesStaleCursorAfterTruncate poisons the tailing cursor cache:
// a reader ships frames (caching its position), the log is checkpointed
// and rewritten, and the next fetch from the old position must not trust
// the stale offset — it revalidates, falls back to a full scan, and
// reports the gap.
func TestReadFramesStaleCursorAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stale.log")
	l, err := OpenLogOpts(path, 0, Options{Policy: SyncEveryRecord})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	// Tail in two budgeted steps so cursors for mid-segment LSNs exist.
	if _, _, err := ReadFrames(path, 0, 1); err != nil {
		t.Fatal(err)
	}
	if frames, _, err := ReadFrames(path, 1, 1); err != nil || len(frames) != 1 || frames[0].LSN != 2 {
		t.Fatalf("cursor resume: %v %v", frames, err)
	}

	// Checkpoint: the file restarts at LSN 7; every cached offset is junk.
	if err := l.Truncate(l.End()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("after-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The cached position for LSN 2 no longer matches the file: gap.
	if _, _, err := ReadFrames(path, 2, 0); !errors.Is(err, ErrShipGap) {
		t.Fatalf("stale cursor err = %v, want ErrShipGap", err)
	}
	// The truncation boundary itself resumes cleanly via the rescan.
	frames, end, err := ReadFrames(path, 6, 0)
	if err != nil || len(frames) != 1 || frames[0].LSN != 7 || end != 7 {
		t.Fatalf("resume at cut: %v %d %v", frames, end, err)
	}
	// The new cursor (LSN 7) works for the caught-up idle poll.
	frames, end, err = ReadFrames(path, 7, 0)
	if err != nil || len(frames) != 0 || end != 7 {
		t.Fatalf("idle poll: %v %d %v", frames, end, err)
	}
}

// TestFrameReadersStopAtTheSameFrame feeds ScanLog and ReadFrames the same
// damaged segments: both read through one frame decoder, so both stop at
// the first frame that is not whole and intact, and neither reads past it.
func TestFrameReadersStopAtTheSameFrame(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "good.log")
	l, err := OpenLogOpts(path, 0, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"one", "two", "three"} {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const second, third = 19, 38 // frame offsets: 16 bytes of header and LSN, then the payload
	damage := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for _, c := range []struct {
		name string
		data []byte
		want []uint64
	}{
		{"intact", good, []uint64{1, 2, 3}},
		{"torn header", good[:third+5], []uint64{1, 2}},
		{"torn payload", good[:len(good)-2], []uint64{1, 2}},
		{"bad crc", damage(func(b []byte) []byte { b[third+4] ^= 0xFF; return b }), []uint64{1, 2}},
		{"bad crc mid-segment", damage(func(b []byte) []byte { b[second+17] ^= 0xFF; return b }), []uint64{1}},
		{"length past end of file", damage(func(b []byte) []byte { b[third]++; return b }), []uint64{1, 2}},
		{"huge length", damage(func(b []byte) []byte { b[third+3] = 0x7F; return b }), []uint64{1, 2}},
	} {
		p := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".log")
		if err := os.WriteFile(p, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		var scanned []uint64
		if _, err := ScanLog(p, func(lsn uint64, _ []byte) error { scanned = append(scanned, lsn); return nil }); err != nil {
			t.Fatal(err)
		}
		frames, end, err := ReadFrames(p, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var shipped []uint64
		for _, f := range frames {
			shipped = append(shipped, f.LSN)
		}
		want := fmt.Sprint(c.want)
		if fmt.Sprint(scanned) != want || fmt.Sprint(shipped) != want || end != c.want[len(c.want)-1] {
			t.Errorf("%s: ScanLog read %v, ReadFrames shipped %v up to %d; want %s", c.name, scanned, shipped, end, want)
		}
	}
}

// TestAppendFramesCopiesTheSegment: a follower's log that takes a primary's
// shipped frames holds the primary's bytes, LSNs included, and refuses a
// frame that is not the next one.
func TestAppendFramesCopiesTheSegment(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "src.log"), filepath.Join(dir, "dst.log")
	l, err := OpenLogOpts(src, 0, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if _, err := l.Append([]byte(strings.Repeat("x", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	frames, _, err := ReadFrames(src, 0, 0)
	if err != nil || len(frames) != 5 {
		t.Fatalf("read %d frames, %v", len(frames), err)
	}
	f, err := OpenLogOpts(dst, 0, Options{Policy: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AppendFrames(frames[:2]); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendFrames(frames[3:]); err == nil || !strings.Contains(err.Error(), "LSN 4") {
		t.Fatalf("out-of-sequence frame err = %v", err)
	}
	if err := f.AppendFrames(frames[2:]); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if lsn := f.LSN(); lsn != 5 {
		t.Fatalf("follower log LSN = %d, want 5", lsn)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(src)
	b, _ := os.ReadFile(dst)
	if string(a) != string(b) {
		t.Fatalf("follower segment differs from the shipped one:\n%x\n%x", a, b)
	}
}

// TestScanThroughReadBuffer reads frames larger than the read buffer and
// frames that straddle its refills, by scan and by cursor resume.
func TestScanThroughReadBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.log")
	l, err := OpenLogOpts(path, 0, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{10, segmentBuf - 30, 100, 3 * segmentBuf, 7, segmentBuf, 1}
	payload := func(i int) []byte { return []byte(strings.Repeat(string(rune('a'+i)), sizes[i])) }
	for i := range sizes {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if last, err := ScanLog(path, func(lsn uint64, p []byte) error {
		if string(p) != string(payload(int(lsn-1))) {
			return fmt.Errorf("LSN %d holds %d bytes, want %d", lsn, len(p), sizes[lsn-1])
		}
		n++
		return nil
	}); err != nil || n != len(sizes) || last != uint64(len(sizes)) {
		t.Fatalf("scan: %d frames up to LSN %d, %v", n, last, err)
	}
	for after := range uint64(len(sizes)) {
		for range 2 { // the second read resumes at the cached cursor
			frames, end, err := ReadFrames(path, after, 1)
			if err != nil || end != uint64(len(sizes)) || len(frames) != 1 || frames[0].LSN != after+1 ||
				string(frames[0].Payload) != string(payload(int(after))) {
				t.Fatalf("read after %d: %d frames, end %d, %v", after, len(frames), end, err)
			}
		}
	}
}

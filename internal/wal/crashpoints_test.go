package wal_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crashfs"
	"repro/internal/wal"
)

// TestLogCrashPoints runs one script under each sync policy on a recording
// file system — waited appends (several in flight at once), un-waited
// appends, SyncNow, a Truncate with records appended after its drop point,
// and appends after it — and reads the log a crash would leave after every
// operation, in every image variant. Each time ScanLog must return a
// contiguous run of LSNs, the one ReadFrames ships, that holds every record
// acknowledged before the crash and, once the truncation's fsync has
// returned, nothing at or below its drop point and every record after it,
// each under its own LSN. An acknowledgement is what the policy promises: a
// resolved future under group commit, a returned append under
// every-record, and a returned SyncNow under all three.
func TestLogCrashPoints(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy wal.SyncPolicy
	}{{"never", wal.SyncNever}, {"every-record", wal.SyncEveryRecord}, {"group", wal.SyncGroupCommit}} {
		t.Run(c.name, func(t *testing.T) { logCrashPoints(t, c.policy) })
	}
}

func logCrashPoints(t *testing.T, policy wal.SyncPolicy) {
	d, fsys, dir := recorded(t)
	path := filepath.Join(dir, wal.LogName)
	l, err := d.OpenLog(path, 0, wal.Options{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(lsn uint64) string { return fmt.Sprintf("record %d", lsn) }

	type ack struct {
		lsn   uint64
		point int // the ack was seen with this many operations recorded
	}
	var acks []ack
	acked := func(lsn uint64) { acks = append(acks, ack{lsn, fsys.Len()}) }
	waited := func(n int) {
		var lsns []uint64
		var futures []<-chan error
		for i := 0; i < n; i++ {
			lsn, f, err := l.AppendAsync([]byte(payload(l.LSN() + 1)))
			if err != nil {
				t.Fatal(err)
			}
			lsns, futures = append(lsns, lsn), append(futures, f)
		}
		for i, f := range futures {
			if err := <-f; err != nil {
				t.Fatal(err)
			}
			if policy != wal.SyncNever {
				acked(lsns[i])
			}
		}
	}
	unwaited := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := l.AppendUnwaited([]byte(payload(l.LSN() + 1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	syncNow := func() {
		if err := l.SyncNow(); err != nil {
			t.Fatal(err)
		}
		acked(l.LSN())
	}

	waited(3)
	unwaited(3)
	waited(1)
	syncNow()
	unwaited(2)
	trunc := l.End()
	truncLSN := trunc.LSN
	unwaited(2)
	waited(1)
	keptLSN, truncFrom := l.LSN(), fsys.Len()
	if err := l.Truncate(trunc); err != nil {
		t.Fatal(err)
	}
	truncDone := fsys.Len()
	waited(2)
	unwaited(1)
	syncNow()
	waited(1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	base := t.TempDir()
	for p := 0; p <= fsys.Len(); p++ {
		for _, v := range crashfs.Variants {
			img := filepath.Join(base, fmt.Sprintf("%d-%s", p, v))
			if err := fsys.Image(img, p, v); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(img, wal.LogName)
			var run []uint64
			if _, err := wal.ScanLog(path, func(lsn uint64, b []byte) error {
				if string(b) != payload(lsn) {
					return fmt.Errorf("LSN %d holds %q", lsn, b)
				}
				run = append(run, lsn)
				return nil
			}); err != nil {
				t.Fatalf("%s, %s image: %v", fsys.Describe(p), v, err)
			}
			// A reader positioned just before the segment's first record
			// is shipped what ScanLog reads; one at 0 before a segment that
			// starts later has a gap.
			var shipped []uint64
			after := uint64(0)
			if len(run) > 0 {
				after = run[0] - 1
			}
			frames, _, err := wal.ReadFrames(path, after, 0)
			for _, f := range frames {
				shipped = append(shipped, f.LSN)
			}
			if err != nil || fmt.Sprint(shipped) != fmt.Sprint(run) {
				t.Fatalf("%s, %s image: ReadFrames ships %v, %v; ScanLog reads %v", fsys.Describe(p), v, shipped, err, run)
			}
			if _, _, err := wal.ReadFrames(path, 0, 0); (after > 0) != errors.Is(err, wal.ErrShipGap) {
				t.Fatalf("%s, %s image: ReadFrames from 0 = %v on a segment starting at %d", fsys.Describe(p), v, err, after+1)
			}
			// The segment starts at LSN 1 until the truncation's rename
			// may have landed, and after the drop point once it is durable.
			// It holds every record acknowledged from its start on, and
			// once the truncation is durable every record it kept.
			first := uint64(1)
			if p >= truncDone || (p >= truncFrom && len(run) > 0 && run[0] == truncLSN+1) {
				first = truncLSN + 1
			}
			need := uint64(0)
			for _, a := range acks {
				if a.point <= p && a.lsn >= first {
					need = max(need, a.lsn)
				}
			}
			if p >= truncDone {
				need = max(need, keptLSN)
			}
			bad := ""
			for i := 1; i < len(run); i++ {
				if run[i] != run[i-1]+1 {
					bad = "not contiguous"
				}
			}
			switch {
			case bad != "":
			case len(run) > 0 && run[0] != first:
				bad = fmt.Sprintf("starts at LSN %d, want %d", run[0], first)
			case need > 0 && (len(run) == 0 || run[len(run)-1] < need):
				bad = fmt.Sprintf("missing records %d..%d", first, need)
			}
			if bad != "" {
				t.Fatalf("%s, %s image: log reads LSNs %v: %s", fsys.Describe(p), v, run, bad)
			}
			if err := os.RemoveAll(img); err != nil {
				t.Fatal(err)
			}
		}
	}
}

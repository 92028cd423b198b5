package wal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crashfs"
	"repro/internal/wal"
)

// TestLogCrashPoints runs one script under each sync policy on a recording
// file system — waited appends (several in flight at once), un-waited
// appends, SyncNow, a Truncate and appends after it — and reads the log a
// crash would leave after every operation, in every image variant. Each
// time ScanLog must return a contiguous run of LSNs that holds every
// record acknowledged before the crash and, once the truncation's fsync
// has returned, nothing from before it. An acknowledgement is what the
// policy promises: a resolved future under group commit, a returned
// append under every-record, and a returned SyncNow under all three.
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
	path := filepath.Join(dir, wal.DefaultLogName)
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
	truncLSN, truncFrom := l.LSN(), fsys.Len()
	if err := l.Truncate(); err != nil {
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
		// The records this point must hold: from the first of the log's
		// current epoch up to the last one acknowledged.
		first, need := uint64(1), uint64(0)
		if p >= truncFrom {
			first = truncLSN + 1
		}
		for _, a := range acks {
			if a.point <= p && a.lsn >= first {
				need = max(need, a.lsn)
			}
		}
		for _, v := range crashfs.Variants {
			img := filepath.Join(base, fmt.Sprintf("%d-%s", p, v))
			if err := fsys.Image(img, p, v); err != nil {
				t.Fatal(err)
			}
			var run []uint64
			if _, err := wal.ScanLog(filepath.Join(img, wal.DefaultLogName), func(lsn uint64, b []byte) error {
				if string(b) != payload(lsn) {
					return fmt.Errorf("LSN %d holds %q", lsn, b)
				}
				run = append(run, lsn)
				return nil
			}); err != nil {
				t.Fatalf("%s, %s image: %v", fsys.Describe(p), v, err)
			}
			bad := ""
			for i := 1; i < len(run); i++ {
				if run[i] != run[i-1]+1 {
					bad = "not contiguous"
				}
			}
			switch {
			case bad != "":
			case need > 0 && (len(run) == 0 || run[0] != first || run[len(run)-1] < need):
				bad = fmt.Sprintf("missing acknowledged records %d..%d", first, need)
			case p >= truncDone && len(run) > 0 && run[0] <= truncLSN:
				bad = fmt.Sprintf("holds records the durable truncation after LSN %d removed", truncLSN)
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

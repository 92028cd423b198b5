package crashfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestImagesFollowTheModel drives the recording file system by hand and
// reads back the image of chosen crash points in each variant.
func TestImagesFollowTheModel(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stamp"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	log, err := fs.OpenFile(filepath.Join(dir, "log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	must(err)
	must(fs.SyncDir(dir))
	_, err = log.Write([]byte("abcd"))
	must(err)
	must(log.Sync())
	_, err = log.Write([]byte("efgh"))
	must(err)
	logWritten := fs.Len()
	tmp, err := fs.OpenFile(filepath.Join(dir, "stamp.tmp"), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	must(err)
	_, err = tmp.Write([]byte("new"))
	must(err)
	must(tmp.Sync())
	must(tmp.Close())
	must(fs.Rename(filepath.Join(dir, "stamp.tmp"), filepath.Join(dir, "stamp")))
	renamed := fs.Len()
	must(fs.SyncDir(dir))
	_, err = fs.OpenFile(filepath.Join(dir, "log"), os.O_WRONLY|os.O_TRUNC, 0)
	must(err)
	truncated := fs.Len()

	for _, c := range []struct {
		point int
		v     Variant
		want  string
	}{
		{0, All, "stamp=old"},
		{logWritten, Synced, "log=abcd stamp=old"},
		{logWritten, Half, "log=abcd stamp=old"},
		{logWritten, All, "log=abcdefgh stamp=old"},
		{logWritten, Torn, "log=abcdef\x00\x00 stamp=old"},
		// The rename is not durable until the directory sync.
		{renamed, Synced, "log=abcd stamp=old"},
		{renamed, Half, "log=abcd stamp=old stamp.tmp=new"},
		{renamed, All, "log=abcdefgh stamp=new"},
		{renamed + 1, Synced, "log=abcd stamp=new"},
		// An unsynced truncate is a write like any other.
		{truncated, Synced, "log=abcd stamp=new"},
		{truncated, All, "log= stamp=new"},
	} {
		img := filepath.Join(t.TempDir(), "img")
		must(fs.Image(img, c.point, c.v))
		entries, err := os.ReadDir(img)
		must(err)
		got := ""
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(img, e.Name()))
			must(err)
			got += fmt.Sprintf(" %s=%s", e.Name(), b)
		}
		if got != " "+c.want {
			t.Errorf("%s, %s: image holds%s, want %s", fs.Describe(c.point), c.v, got, c.want)
		}
	}

	// Held and failed fsyncs.
	s := fs.Syncs(filepath.Join(dir, "log"))
	release := s.Hold()
	done := make(chan error, 1)
	go func() { done <- log.Sync() }()
	<-s.Entered() // the earlier sync announced itself too
	<-s.Entered()
	select {
	case <-done:
		t.Fatal("a held fsync returned")
	default:
	}
	release()
	must(<-done)
	boom := errors.New("boom")
	s.Fail(boom)
	if err := log.Sync(); !errors.Is(err, boom) {
		t.Fatalf("failed fsync returned %v", err)
	}
	if n := s.Count(); n != 3 {
		t.Fatalf("%d fsyncs counted, want 3", n)
	}
}

package coldstore

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "cold.pages"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutReadRoundtrip(t *testing.T) {
	s := openTest(t, Options{})
	var refs []Ref
	var want [][]byte
	for i := 0; i < 1000; i++ {
		tup := []byte(fmt.Sprintf("tuple-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i%100)))
		ref, err := s.Put(tup)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
		want = append(want, tup)
	}
	for i, ref := range refs {
		got, err := s.Read(ref, nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("tuple %d: got %q want %q", i, got, want[i])
		}
	}
}

// TestPoolEviction forces the working set past the pool capacity and
// re-reads everything: dirty pages must survive writeback and fault
// back in intact.
func TestPoolEviction(t *testing.T) {
	s := openTest(t, Options{PageSize: 512, PoolPages: 2})
	var refs []Ref
	var want [][]byte
	for i := 0; i < 500; i++ {
		tup := []byte(fmt.Sprintf("v-%04d-%s", i, bytes.Repeat([]byte("x"), 100)))
		ref, err := s.Put(tup)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
		want = append(want, tup)
	}
	st := s.Stats()
	if st.PoolPages > 2 {
		t.Fatalf("pool holds %d pages, cap 2", st.PoolPages)
	}
	if st.PoolEvictions == 0 || st.PageWrites == 0 {
		t.Fatalf("expected pool evictions with writeback, got %+v", st)
	}
	for i, ref := range refs {
		got, err := s.Read(ref, nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("tuple %d corrupted after pool eviction", i)
		}
	}
	if s.Stats().PageReads == 0 {
		t.Fatal("expected disk faults after pool eviction")
	}
}

// TestPageReuse frees every tuple on the early pages and verifies new
// Puts recycle them instead of growing the file.
func TestPageReuse(t *testing.T) {
	s := openTest(t, Options{PageSize: 512, PoolPages: 4})
	var refs []Ref
	for i := 0; i < 200; i++ {
		ref, err := s.Put(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	grown := s.Stats().Pages
	for _, ref := range refs {
		s.Free(ref)
	}
	if free := s.Stats().FreePages; free == 0 {
		t.Fatal("no pages returned to the free list")
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Put(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if after := s.Stats().Pages; after > grown {
		t.Fatalf("file grew from %d to %d pages despite free list", grown, after)
	}
}

// TestPinnedViewSurvivesPressure holds a view open while churning enough
// pages to wrap the pool; the pinned page must not be replaced under it.
func TestPinnedViewSurvivesPressure(t *testing.T) {
	s := openTest(t, Options{PageSize: 512, PoolPages: 2})
	want := bytes.Repeat([]byte("pinned"), 20)
	ref, err := s.Put(want)
	if err != nil {
		t.Fatal(err)
	}
	view, release, err := s.View(ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := s.Put(bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(view, want) {
		t.Fatal("pinned view changed under pool pressure")
	}
	// Dropping the pinned page from the pool must not hand its buffer to the
	// next page either.
	s.Free(ref)
	for i := 0; i < 300; i++ {
		if _, err := s.Put(bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(view, want) {
		t.Fatal("pinned view changed after its page was dropped")
	}
	release()
}

// TestFullPoolMissesAllocateNoPages: once the pool is at capacity a miss
// takes over the victim's frame and buffer, so a read loop that misses
// every time allocates (almost) nothing — before, one page per miss.
func TestFullPoolMissesAllocateNoPages(t *testing.T) {
	const pageSize, poolPages, pages = 4096, 4, 16
	s := openTest(t, Options{PageSize: pageSize, PoolPages: poolPages})
	var firstOnPage []Ref
	for len(firstOnPage) < pages {
		ref, err := s.Put(bytes.Repeat([]byte{byte(len(firstOnPage))}, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Slot() == 0 {
			firstOnPage = append(firstOnPage, ref)
		}
	}
	buf := make([]byte, 0, 1000)
	readAll := func() {
		for i, ref := range firstOnPage {
			got, err := s.Read(ref, buf)
			if err != nil || len(got) != 1000 || got[0] != byte(i) || got[999] != byte(i) {
				t.Fatalf("page %d: read %d bytes, err %v", i, len(got), err)
			}
		}
	}
	readAll() // settle: the pool is full and cycling
	reads := s.Stats().PageReads
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 50
	for r := 0; r < rounds; r++ {
		readAll()
	}
	runtime.ReadMemStats(&after)
	st := s.Stats()
	if misses := st.PageReads - reads; misses != rounds*pages {
		t.Fatalf("%d misses in %d reads: the loop was meant to miss every time", misses, rounds*pages)
	}
	if st.PoolPages > poolPages || st.PoolBytes > (poolPages+1)*pageSize {
		t.Fatalf("pool holds %d pages, %d bytes; cap %d pages", st.PoolPages, st.PoolBytes, poolPages)
	}
	if perMiss := (after.TotalAlloc - before.TotalAlloc) / (rounds * pages); perMiss > pageSize/16 {
		t.Fatalf("%d bytes allocated per miss on a full pool (page size %d)", perMiss, pageSize)
	}
}

// TestFreshPageOnRecycledBuffer: a fresh page that inherits a buffer full
// of another page's tuples serves only what was put on it.
func TestFreshPageOnRecycledBuffer(t *testing.T) {
	s := openTest(t, Options{PageSize: 512, PoolPages: 2})
	var old []Ref
	for i := 0; i < 40; i++ { // 4 tuples a page: every buffer is full of these
		ref, err := s.Put(bytes.Repeat([]byte("O"), 100))
		if err != nil {
			t.Fatal(err)
		}
		old = append(old, ref)
	}
	for _, ref := range old {
		s.Free(ref)
	}
	want := []byte("the only tuple on its page")
	ref, err := s.Put(want) // a freed page, on a recycled buffer
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(ref, nil); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %q, err %v", got, err)
	}
	for slot := 1; slot < 4; slot++ {
		if got, err := s.Read(makeRef(ref.Page(), slot), nil); err == nil {
			t.Fatalf("slot %d of a one-tuple page served %q", slot, got)
		}
	}
}

func TestDeferredFree(t *testing.T) {
	s := openTest(t, Options{PageSize: 512})
	ref, err := s.Put([]byte("cold"))
	if err != nil {
		t.Fatal(err)
	}
	s.DeferFree(ref, 10)
	if n := s.ReleaseFreed(10); n != 0 {
		t.Fatalf("freed %d refs at watermark == seq; want 0", n)
	}
	if got, err := s.Read(ref, nil); err != nil || !bytes.Equal(got, []byte("cold")) {
		t.Fatalf("deferred ref unreadable before watermark: %q %v", got, err)
	}
	if n := s.ReleaseFreed(11); n != 1 {
		t.Fatalf("freed %d refs past watermark; want 1", n)
	}
	if s.Stats().PendingFrees != 0 {
		t.Fatal("pending frees remain")
	}
}

func TestOversizedTupleRejected(t *testing.T) {
	s := openTest(t, Options{PageSize: 512})
	if _, err := s.Put(make([]byte, s.MaxTuple()+1)); err == nil {
		t.Fatal("oversized tuple accepted")
	}
	if _, err := s.Put(make([]byte, s.MaxTuple())); err != nil {
		t.Fatalf("max-size tuple rejected: %v", err)
	}
}

// TestConcurrentReaders hammers Read from many goroutines against a
// writer Putting fresh tuples — the pool must stay consistent (run
// under -race in CI).
func TestConcurrentReaders(t *testing.T) {
	s := openTest(t, Options{PageSize: 512, PoolPages: 3})
	var refs []Ref
	var want [][]byte
	for i := 0; i < 300; i++ {
		tup := []byte(fmt.Sprintf("stable-%04d", i))
		ref, err := s.Put(tup)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
		want = append(want, tup)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 64)
			for i := 0; i < 2000; i++ {
				j := (i*7 + g) % len(refs)
				got, err := s.Read(refs[j], buf)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(got, want[j]) {
					t.Errorf("tuple %d: got %q want %q", j, got, want[j])
					return
				}
				buf = got
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			if _, err := s.Put(bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

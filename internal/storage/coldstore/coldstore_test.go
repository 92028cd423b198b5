package coldstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
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

// putAll stores tups and returns their refs.
func putAll(t *testing.T, s *Store, tups [][]byte) []Ref {
	t.Helper()
	refs := make([]Ref, len(tups))
	for i, tup := range tups {
		ref, err := s.Put(tup)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	return refs
}

func TestPutReadRoundtrip(t *testing.T) {
	s := openTest(t, Options{})
	var want [][]byte
	for i := 0; i < 1000; i++ {
		want = append(want, []byte(fmt.Sprintf("tuple-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i%100))))
	}
	refs := putAll(t, s, want)
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

// TestSealedPagesReadBack fills many small pages, so every page but the
// last is sealed to the file, and reads everything back.
func TestSealedPagesReadBack(t *testing.T) {
	s := openTest(t, Options{PageSize: 512})
	var want [][]byte
	for i := 0; i < 500; i++ {
		want = append(want, []byte(fmt.Sprintf("v-%04d-%s", i, bytes.Repeat([]byte("x"), 100))))
	}
	refs := putAll(t, s, want)
	if st := s.Stats(); st.PageWrites == 0 || st.PageWrites != st.Pages-1 {
		t.Fatalf("%d pages, %d sealed: every page but the fill page should be", st.Pages, st.PageWrites)
	}
	for i, ref := range refs {
		if got, err := s.Read(ref, nil); err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("tuple %d: read %q, err %v", i, got, err)
		}
	}
}

// TestReadReadsExactlyTheTuple: a read of a tuple on a sealed page is one
// pread of the tuple's own bytes, not of its page.
func TestReadReadsExactlyTheTuple(t *testing.T) {
	s := openTest(t, Options{PageSize: 4096})
	var tups [][]byte
	for i := 0; i < 40; i++ { // ten 350-byte tuples a page: four pages
		tups = append(tups, bytes.Repeat([]byte{byte(i)}, 350))
	}
	refs := putAll(t, s, tups)
	before := s.Stats()
	for _, i := range []int{0, 13, 25} {
		if got, err := s.Read(refs[i], nil); err != nil || !bytes.Equal(got, tups[i]) {
			t.Fatalf("tuple %d: read %d bytes, err %v", i, len(got), err)
		}
	}
	st := s.Stats()
	if reads, n := st.Reads-before.Reads, st.ReadBytes-before.ReadBytes; reads != 3 || n != 3*350 {
		t.Fatalf("three reads of 350-byte tuples: %d preads, %d bytes", reads, n)
	}
}

// TestBatchOnOnePageIsOneRead: a batch of refs on one page, asked for in
// any order, is served by one pread and hands each tuple to its own At; a
// batch spanning two pages is two.
func TestBatchOnOnePageIsOneRead(t *testing.T) {
	s := openTest(t, Options{PageSize: 4096})
	var tups [][]byte
	for i := 0; i < 30; i++ {
		tups = append(tups, []byte(fmt.Sprintf("tuple %02d %s", i, bytes.Repeat([]byte("p"), 300))))
	}
	refs := putAll(t, s, tups)
	if refs[0].Page() == refs[len(refs)-1].Page() {
		t.Fatal("the tuples fit on one page")
	}
	read := func(idx []int) (preads uint64) {
		t.Helper()
		fs := make([]Fetch, len(idx))
		for k, i := range idx {
			fs[k] = Fetch{Ref: refs[i], At: i}
		}
		got := map[int]bool{}
		before := s.Stats().Reads
		err := s.ReadBatch(fs, func(at int, tuple []byte) {
			if !bytes.Equal(tuple, tups[at]) {
				t.Fatalf("batch handed %q to %d", tuple, at)
			}
			got[at] = true
		})
		if err != nil || len(got) != len(idx) {
			t.Fatalf("batch of %d served %d, err %v", len(idx), len(got), err)
		}
		return s.Stats().Reads - before
	}
	onePage := []int{7, 0, 3, 9, 5}
	for _, i := range onePage {
		if refs[i].Page() != refs[0].Page() {
			t.Fatalf("tuple %d is not on the first page", i)
		}
	}
	if n := read(onePage); n != 1 {
		t.Fatalf("a batch on one page took %d preads", n)
	}
	if n := read([]int{20, 2, 11}); n != 2 {
		t.Fatalf("a batch over two pages took %d preads", n)
	}
}

// TestFillPageServedWithoutIO: a ref on the open fill page, read alone or
// in a batch, is copied from memory.
func TestFillPageServedWithoutIO(t *testing.T) {
	s := openTest(t, Options{})
	refs := putAll(t, s, [][]byte{[]byte("fresh"), []byte("fresher")})
	if got, err := s.Read(refs[1], nil); err != nil || string(got) != "fresher" {
		t.Fatalf("read %q, err %v", got, err)
	}
	err := s.ReadBatch([]Fetch{{Ref: refs[1], At: 1}, {Ref: refs[0], At: 0}}, func(at int, tuple []byte) {
		if want := []string{"fresh", "fresher"}[at]; string(tuple) != want {
			t.Fatalf("batch handed %q to %d, want %q", tuple, at, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Reads != 0 || st.ReadBytes != 0 || st.PageWrites != 0 {
		t.Fatalf("fill-page reads did I/O: %+v", st)
	}
}

// TestReadMissAllocatesNothing: a read from the file into a buffer the
// caller sized, alone or as a batch, allocates nothing. (A batch's span
// buffer is pooled, which the race detector defeats.)
func TestReadMissAllocatesNothing(t *testing.T) {
	s := openTest(t, Options{PageSize: 4096})
	var tups [][]byte
	for i := 0; i < 40; i++ {
		tups = append(tups, bytes.Repeat([]byte{byte(i)}, 350))
	}
	refs := putAll(t, s, tups)
	buf := make([]byte, 0, 350)
	if n := testing.AllocsPerRun(200, func() {
		if got, err := s.Read(refs[3], buf); err != nil || got[0] != 3 {
			t.Fatalf("read %v, err %v", got, err)
		}
	}); n != 0 {
		t.Fatalf("a read allocates %.1f times", n)
	}
	if raceEnabled {
		return
	}
	fs := make([]Fetch, 4)
	if n := testing.AllocsPerRun(200, func() {
		for k, i := range []int{20, 1, 11, 2} {
			fs[k] = Fetch{Ref: refs[i], At: i}
		}
		if err := s.ReadBatch(fs, func(int, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}); n >= 1 {
		t.Fatalf("a batch read allocates %.1f times", n)
	}
}

// TestPageReuse frees every tuple on the early pages and verifies new
// Puts recycle them instead of growing the file.
func TestPageReuse(t *testing.T) {
	s := openTest(t, Options{PageSize: 512})
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
		ref, err := s.Put(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.Read(ref, nil); err != nil || got[0] != byte(i) || len(got) != 100 {
			t.Fatalf("a recycled page served %d bytes of %v, err %v", len(got), got[:1], err)
		}
	}
	if after := s.Stats().Pages; after > grown {
		t.Fatalf("file grew from %d to %d pages despite free list", grown, after)
	}
}

// TestFreshPageOnRecycledBuffer: a fill page opened on a freed page, in
// the buffer that held another page's tuples, serves what was put on it.
func TestFreshPageOnRecycledBuffer(t *testing.T) {
	s := openTest(t, Options{PageSize: 512})
	var old []Ref
	for i := 0; i < 40; i++ { // 5 tuples a page: the buffer is full of these
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
	ref, err := s.Put(want) // a freed page, in the recycled buffer
	if err != nil {
		t.Fatal(err)
	}
	if ref.Off() != 0 || ref.Len() != len(want) {
		t.Fatalf("a fresh page put its first tuple at %d, length %d", ref.Off(), ref.Len())
	}
	if got, err := s.Read(ref, nil); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %q, err %v", got, err)
	}
}

// TestFillPageFreedWhileOpen: a fill page whose every tuple is freed
// goes to the free list and stops being the fill page, so tuples put
// after it are never overwritten by the page's reuse.
func TestFillPageFreedWhileOpen(t *testing.T) {
	s := openTest(t, Options{PageSize: 512})
	early := putAll(t, s, [][]byte{[]byte("a"), []byte("b")})
	for _, ref := range early {
		s.Free(ref)
	}
	var want [][]byte
	for i := 0; i < 20; i++ { // several pages' worth
		want = append(want, bytes.Repeat([]byte{byte('c' + i)}, 100))
	}
	refs := putAll(t, s, want)
	for i, ref := range refs {
		if got, err := s.Read(ref, nil); err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("tuple %d: read %q, err %v", i, got, err)
		}
	}
}

// TestRefFieldsAtLargestPage: on a 64 KiB page every offset and length a
// Put hands out fits a Ref's 16 bits, up to the page's last byte.
func TestRefFieldsAtLargestPage(t *testing.T) {
	s := openTest(t, Options{PageSize: 64 * 1024})
	big := bytes.Repeat([]byte("b"), s.MaxTuple())
	refs := putAll(t, s, [][]byte{big, {}, []byte("x")})
	if refs[0].Off() != 0 || refs[0].Len() != len(big) || refs[1].Page() != refs[0].Page() || refs[1].Off() != len(big) {
		t.Fatalf("refs %v: want the big tuple at 0 and the empty one after it on its page", refs)
	}
	if refs[2].Page() == refs[0].Page() || refs[2].Off() != 0 {
		t.Fatalf("a tuple past a full 64 KiB page got page %d offset %d", refs[2].Page(), refs[2].Off())
	}
	for i, want := range [][]byte{big, {}, []byte("x")} {
		if got, err := s.Read(refs[i], nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("tuple %d: read %d bytes, err %v", i, len(got), err)
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
// writer Putting fresh tuples, sealing pages as it goes (run under -race
// in CI).
func TestConcurrentReaders(t *testing.T) {
	s := openTest(t, Options{PageSize: 512})
	var want [][]byte
	for i := 0; i < 300; i++ {
		want = append(want, []byte(fmt.Sprintf("stable-%04d", i)))
	}
	refs := putAll(t, s, want)
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

// TestReadersVsPutSealFreeReuse hammers readers, alone and in batches,
// against a writer that Puts (sealing small pages), retires tuples with
// DeferFree, releases them at a watermark that respects every reader's
// pin, and so reuses pages under them. A reader only reads refs it
// captured while pinned, as the tables' readers do; every read must
// return the tuple it captured (run under -race in CI).
//
// What it bounds is counted in steps, not in time: the writer waits while
// its retirements run more than lagLimit ahead of the oldest pin, and it
// finishes only after every reader has read. So at most 65 live tuples,
// lagLimit+1 retired at the last release and 16 retired since hold a page,
// and the file grows to at most one page more than that, however long the
// scheduler leaves a pinned reader off a CPU.
func TestReadersVsPutSealFreeReuse(t *testing.T) {
	const readers, lagLimit = 4, 256
	s := openTest(t, Options{PageSize: 512})
	type entry struct {
		ref  Ref
		want []byte
	}
	var (
		mu       sync.Mutex
		unpinned = sync.NewCond(&mu) // a reader let go of its pin
		live     []entry
		seq      uint64       = 1
		pins                  = map[int]uint64{}
		rounds   [readers]int // reads each reader finished
		stop     = make(chan struct{})
	)
	watermark := func() uint64 { // caller holds mu
		w := seq + 1
		for _, p := range pins {
			w = min(w, p)
		}
		return w
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				pins[g] = seq
				var got []entry
				for k := 0; k < 5 && len(live) > 0; k++ {
					got = append(got, live[rng.Intn(len(live))])
				}
				mu.Unlock()
				for _, e := range got {
					var err error
					if buf, err = s.Read(e.ref, buf); err != nil || !bytes.Equal(buf, e.want) {
						t.Errorf("read %q, want %q, err %v", buf, e.want, err)
					}
				}
				fs := make([]Fetch, len(got))
				for k, e := range got {
					fs[k] = Fetch{Ref: e.ref, At: k}
				}
				if err := s.ReadBatch(fs, func(at int, tuple []byte) {
					if !bytes.Equal(tuple, got[at].want) {
						t.Errorf("batch read %q, want %q", tuple, got[at].want)
					}
				}); err != nil {
					t.Error(err)
				}
				mu.Lock()
				delete(pins, g)
				if len(got) > 0 {
					rounds[g]++
				}
				unpinned.Broadcast()
				mu.Unlock()
				if t.Failed() {
					return
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000 && !t.Failed(); i++ {
		tup := []byte(fmt.Sprintf("%d:%s", i, bytes.Repeat([]byte{'a' + byte(i%26)}, 10+rng.Intn(110))))
		ref, err := s.Put(tup)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		live = append(live, entry{ref, tup})
		if len(live) > 64 { // retire one: no later pin can capture it
			for seq+1-watermark() > lagLimit {
				unpinned.Wait()
			}
			k := rng.Intn(len(live))
			seq++
			s.DeferFree(live[k].ref, seq)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if i%16 == 0 {
			s.ReleaseFreed(watermark())
		}
		mu.Unlock()
	}
	mu.Lock()
	for g := 0; g < readers && !t.Failed(); g++ {
		for rounds[g] == 0 {
			unpinned.Wait()
		}
	}
	mu.Unlock()
	close(stop)
	wg.Wait()
	// Without page reuse the tuples would fill ~2 900 pages.
	const maxPages = 65 + (lagLimit + 1) + 16 + 1
	if st := s.Stats(); st.Frees == 0 || st.Reads == 0 || st.Pages > maxPages {
		t.Fatalf("the hammer freed %d tuples, read %d times and grew to %d pages (at most %d)", st.Frees, st.Reads, st.Pages, maxPages)
	}
}

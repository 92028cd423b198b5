package sql

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

const cacheBenchStmt = "SELECT a.id, b.name FROM accounts AS a JOIN names AS b ON a.id = b.id WHERE a.balance > ? AND b.region = ? ORDER BY a.id LIMIT 10"

func TestParseCachedMatchesParse(t *testing.T) {
	stmts := []string{
		"SELECT * FROM t WHERE k = ?",
		"INSERT INTO t (k, v) VALUES (?, ?)",
		"UPDATE t SET v = ? WHERE k = ?",
		"DELETE FROM t WHERE k = ?",
		cacheBenchStmt,
	}
	for _, text := range stmts {
		want, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		for i := 0; i < 3; i++ { // first call populates, later calls hit
			got, err := ParseCached(text)
			if err != nil {
				t.Fatalf("ParseCached(%q) call %d: %v", text, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ParseCached(%q) = %#v, want %#v", text, got, want)
			}
		}
	}
}

func TestParseCachedSharesAST(t *testing.T) {
	text := "SELECT v FROM shared_ast_probe WHERE k = ?"
	a, err := ParseCached(text)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseCached(text)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("ParseCached returned distinct ASTs for identical text; cache missed")
	}
}

func TestParseCachedError(t *testing.T) {
	if _, err := ParseCached("SELEC broken FROM"); err == nil {
		t.Fatal("expected parse error")
	}
	// Errors must not poison the cache or the pool.
	if _, err := ParseCached("SELECT 1 FROM t"); err != nil {
		t.Fatalf("parse after error: %v", err)
	}
}

func TestStmtCacheBounded(t *testing.T) {
	var c Cache[string, Statement]
	total := 3 * stmtCacheLimit
	for i := 0; i < total; i++ {
		c.Put(fmt.Sprintf("SELECT %d", i), &Select{})
	}
	if size := c.Len(); size > c.Cap() || c.Cap() != 2*stmtCacheLimit {
		t.Fatalf("cache grew to %d entries, cap is %d", size, c.Cap())
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("%d entries after Clear", c.Len())
	}
}

func TestStmtCachePromotionSurvivesRotation(t *testing.T) {
	var c Cache[string, Statement]
	hot := "SELECT hot FROM t"
	c.Put(hot, &Select{})
	for gen := 0; gen < 4; gen++ {
		// Fill a full generation of cold entries, forcing rotation.
		for i := 0; i < stmtCacheLimit; i++ {
			c.Put(fmt.Sprintf("SELECT cold_%d_%d", gen, i), &Select{})
		}
		// A hit promotes hot back into cur, so it survives the next rotation.
		if _, ok := c.Get(hot); !ok {
			t.Fatalf("hot statement evicted after %d rotations despite hits", gen+1)
		}
	}
}

func TestParseCachedConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				text := fmt.Sprintf("SELECT c%d FROM t WHERE k = ?", i%17)
				if _, err := ParseCached(text); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkParse is the old wire hot path: full lex + parse per call.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(cacheBenchStmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePooled isolates the allocation win from parser pooling
// without statement caching.
func BenchmarkParsePooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parsePooled(cacheBenchStmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseCached is the new wire hot path: one parse, then map hits.
func BenchmarkParseCached(b *testing.B) {
	b.ReportAllocs()
	if _, err := ParseCached(cacheBenchStmt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseCached(cacheBenchStmt); err != nil {
			b.Fatal(err)
		}
	}
}

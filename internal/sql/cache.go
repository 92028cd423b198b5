package sql

import "sync"

// Parser pooling, the parse cache, and the bounded cache they share with the
// execution engine's plan cache.
//
// A statement text is parsed once: ParseCached memoizes the parsed AST per
// text, and on a miss parses with a pooled parser whose token buffer is
// recycled across calls. The execution engine plans from these trees and
// keeps its plans in a Cache of its own, so a text is parsed once per
// process and planned once per partition.
//
// Cached Statements are shared between goroutines. Callers MUST treat them
// as immutable — anything that needs to rewrite an AST must copy the nodes
// it changes first.

// parserPool recycles parser structs — and, through them, token-slice
// backing arrays — between parses. Parsers are zeroed before reuse; only
// the token buffer's capacity survives.
var parserPool = sync.Pool{New: func() any { return new(parser) }}

// parsePooled is Parse with the allocations hoisted into parserPool.
func parsePooled(input string) (Statement, error) {
	p := parserPool.Get().(*parser)
	toks, err := lexAppend(input, p.toks[:0])
	if err != nil {
		p.toks = toks
		putParser(p)
		return nil, err
	}
	p.toks, p.pos, p.src, p.params = toks, 0, input, 0
	stmt, err := p.parseStatement()
	if err == nil {
		p.accept(TokSym, ";")
		if !p.at(TokEOF, "") {
			err = p.errf("unexpected %s after statement", p.peek())
		}
	}
	putParser(p)
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

func putParser(p *parser) {
	toks := p.toks[:0]
	*p = parser{toks: toks}
	parserPool.Put(p)
}

// stmtCacheLimit bounds each cache generation. Two generations are live at
// once, so a Cache holds at most 2*stmtCacheLimit entries.
const stmtCacheLimit = 4096

// Cache is a bounded two-generation cache, safe for concurrent use; the
// zero value is ready. Entries are added to cur; when cur fills, it becomes
// prev and a fresh cur starts. Hits in prev are promoted back into cur, so
// hot entries survive rotation and cold ones age out after at most two
// generations: whatever its callers send, it never holds more than Cap.
type Cache[K comparable, V any] struct {
	mu   sync.RWMutex
	cur  map[K]V
	prev map[K]V
}

// Get returns the value cached under k.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.RLock()
	v, ok := c.cur[k]
	c.mu.RUnlock()
	if ok {
		return v, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.cur[k]; ok {
		return v, true
	}
	if v, ok := c.prev[k]; ok {
		c.putLocked(k, v)
		return v, true
	}
	return v, false
}

// Put caches v under k.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	c.putLocked(k, v)
	c.mu.Unlock()
}

func (c *Cache[K, V]) putLocked(k K, v V) {
	if c.cur == nil {
		c.cur = make(map[K]V, 64)
	}
	if len(c.cur) >= stmtCacheLimit {
		c.prev = c.cur
		c.cur = make(map[K]V, 64)
	}
	c.cur[k] = v
}

// Clear drops every entry.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	c.cur, c.prev = nil, nil
	c.mu.Unlock()
}

// Len reports how many entries the cache holds, at most Cap.
func (c *Cache[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.cur) + len(c.prev)
}

// Cap is the most entries a Cache ever holds.
func (c *Cache[K, V]) Cap() int { return 2 * stmtCacheLimit }

var cache Cache[string, Statement]

// ParseCached parses one SQL statement, memoizing the result by statement
// text. The returned Statement may be shared with concurrent callers and
// must be treated as read-only. Parse errors are not cached.
func ParseCached(input string) (Statement, error) {
	if s, ok := cache.Get(input); ok {
		return s, nil
	}
	stmt, err := parsePooled(input)
	if err != nil {
		return nil, err
	}
	cache.Put(input, stmt)
	return stmt, nil
}

// ParseCacheSize reports how many statements the parse cache holds and the
// most it ever holds.
func ParseCacheSize() (n, limit int) { return cache.Len(), cache.Cap() }

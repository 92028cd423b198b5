package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
)

// sharedTreeRun makes every run's statement texts its own, so each starts
// on a cold parse cache as well as cold plan caches (-count=2 included).
var sharedTreeRun atomic.Int64

// TestSharedStatementTreesAcrossGoroutines runs the same 30 statement texts
// from 8 goroutines against a 4-partition store whose caches are all cold:
// reads planned from one shared parse at once, and procedure statements
// planned on the workers while snapshot readers plan beside them. Trees
// from the parse cache are shared by all of them and must only be read
// (run it under -race); every goroutine must get the same answer for every
// text, and the answers must be those of a one-partition store.
func TestSharedStatementTreesAcrossGoroutines(t *testing.T) {
	run := sharedTreeRun.Add(1)
	text := func(format string) string {
		// The alias carries the run, so the text is new to the parse cache.
		return fmt.Sprintf(format, fmt.Sprintf("r%d", run))
	}
	type stmt struct {
		sql    string
		params []types.Value
	}
	i := types.NewInt
	reads := []stmt{
		{text("SELECT k, v FROM rc AS %s WHERE k = ?"), []types.Value{i(5)}},
		{text("SELECT COUNT(*) FROM rc AS %s"), nil},
		{text("SELECT g, COUNT(*) FROM rc AS %s GROUP BY g"), nil},
		{text("SELECT g, SUM(v) FROM rc AS %s GROUP BY g HAVING SUM(v) > ?"), []types.Value{i(100)}},
		{text("SELECT g, AVG(v) FROM rc AS %s GROUP BY g"), nil},
		{text("SELECT AVG(v + ?) FROM rc AS %s WHERE k >= ?"), []types.Value{i(1), i(10)}},
		{text("SELECT g FROM rc AS %s GROUP BY g HAVING AVG(v) >= ?"), []types.Value{i(3)}},
		{text("SELECT g, SUM(v) / COUNT(v) FROM rc AS %s GROUP BY g"), nil},
		{text("SELECT g, MAX(v) - MIN(v) FROM rc AS %s GROUP BY g ORDER BY g"), nil},
		{text("SELECT COUNT(*) FROM rc AS %s LIMIT 1"), nil},
		{text("SELECT g, SUM(v) FROM rc AS %s GROUP BY g ORDER BY g LIMIT ?"), []types.Value{i(2)}},
		{text("SELECT k FROM rc AS %s WHERE v > ? ORDER BY k LIMIT 5"), []types.Value{i(3)}},
		{text("SELECT DISTINCT g FROM rc AS %s"), nil},
		{text("SELECT k, v FROM rc AS %s WHERE k BETWEEN ? AND ? ORDER BY k"), []types.Value{i(10), i(20)}},
		{text("SELECT MIN(v), MAX(v), SUM(v) FROM rc AS %s"), nil},
		{text("SELECT g, COUNT(*) FROM rc AS %s WHERE v > ? GROUP BY g HAVING COUNT(*) >= ?"), []types.Value{i(2), i(3)}},
		{text("SELECT name FROM names AS %s WHERE g = ?"), []types.Value{i(1)}},
		{text("SELECT COUNT(*) FROM names AS %s"), nil},
		{text("SELECT k, name FROM rc AS %[1]s JOIN names AS n ON n.g = %[1]s.g WHERE k < ? ORDER BY k"), []types.Value{i(12)}},
		{text("SELECT g, SUM(v) * ? FROM rc AS %s GROUP BY g"), []types.Value{i(2)}},
		{text("SELECT g, COUNT(v) FROM rc AS %s GROUP BY g HAVING COUNT(v) < COUNT(*)"), nil},
		{text("SELECT k FROM rc AS %s WHERE g IN (SELECT g FROM names WHERE name = ?) ORDER BY k"), []types.Value{types.NewString("g1")}},
		{text("SELECT g, AVG(v) * 2 FROM rc AS %s GROUP BY g HAVING COUNT(*) > ? ORDER BY g"), []types.Value{i(5)}},
		{text("SELECT SUM(v) FROM rc AS %s WHERE k >= ?"), []types.Value{i(30)}},
	}
	// Run by the procedure on a partition's worker, with the routing key as
	// the statement's parameter.
	procTexts := []string{
		text("SELECT v FROM rc AS %s WHERE k = ?"),
		text("SELECT COUNT(*) FROM rc AS %s"),
		text("SELECT g, SUM(v) FROM rc AS %s GROUP BY g ORDER BY g"),
		text("SELECT name FROM names AS %s ORDER BY name"),
		text("SELECT k FROM rc AS %s WHERE k >= ? ORDER BY k LIMIT 3"),
		text("SELECT AVG(v) FROM rc AS %s"),
	}

	build := func(parts int) *Store {
		st := Open(Config{Partitions: parts})
		if err := st.ExecScript(`
			CREATE TABLE rc (k BIGINT PRIMARY KEY, g BIGINT, v BIGINT) PARTITION BY k;
			CREATE TABLE names (g BIGINT PRIMARY KEY, name VARCHAR);`); err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterProcedure(&pe.Procedure{
			Name: "run", PartitionParam: 1,
			Handler: func(ctx *pe.ProcCtx) error {
				res, err := ctx.Query(procTexts[ctx.Params[1].Int()], ctx.Params[0])
				ctx.SetResult(res)
				return err
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := st.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Stop() })
		for g := int64(0); g < 6; g++ {
			if _, err := st.Exec("INSERT INTO names VALUES (?, ?)", i(g), types.NewString(fmt.Sprintf("g%d", g))); err != nil {
				t.Fatal(err)
			}
		}
		for k := int64(0); k < 64; k++ {
			v := i(k % 7)
			if k%9 == 8 {
				v = types.Null
			}
			if _, err := st.Exec("INSERT INTO rc VALUES (?, ?, ?)", i(k), i(k%6), v); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	four := build(4)
	// One routing key per partition for the procedure statements.
	var keys []types.Value
	for k, seen := int64(0), map[int]bool{}; len(keys) < four.NumPartitions(); k++ {
		if p := four.partitionFor(i(k)); !seen[p] {
			seen[p] = true
			keys = append(keys, i(k))
		}
	}

	const goroutines = 8
	answers := make([][]string, goroutines) // [goroutine][read texts, then proc texts x keys]
	errs := make([]error, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			out := make([]string, len(reads)+len(procTexts)*len(keys))
			start.Wait()
			// Each goroutine starts at another text, so first plans collide
			// on every text across goroutines and partitions.
			for n := 0; n < len(out); n++ {
				j := (n + gr*5) % len(out)
				var res *pe.Result
				var err error
				var q string
				if j < len(reads) {
					q = reads[j].sql
					res, err = four.Query(q, reads[j].params...)
				} else {
					pt := j - len(reads)
					q = procTexts[pt/len(keys)]
					res, err = four.Call("run", keys[pt%len(keys)], i(int64(pt/len(keys))))
				}
				if err != nil {
					errs[gr] = fmt.Errorf("%s: %w", q, err)
					return
				}
				out[j] = canonRows(res, q)
			}
			answers[gr] = out
		}(gr)
	}
	start.Done()
	wg.Wait()
	for gr, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", gr, err)
		}
	}
	for gr := 1; gr < goroutines; gr++ {
		for j := range answers[0] {
			if answers[gr][j] != answers[0][j] {
				t.Errorf("text %d: goroutine %d answered\n%s goroutine 0 answered\n%s", j, gr, answers[gr][j], answers[0][j])
			}
		}
	}

	one := build(1)
	for j, q := range reads {
		want, err := one.Query(q.sql, q.params...)
		if err != nil {
			t.Fatalf("1 partition: %s: %v", q.sql, err)
		}
		if w := canonRows(want, q.sql); answers[0][j] != w {
			t.Errorf("%s:\n 1 partition: %s 4 partitions: %s", q.sql, w, answers[0][j])
		}
	}
}

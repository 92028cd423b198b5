package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
)

// TestMergeDifferentialOneVsManyPartitions is the differential oracle for
// reads over several partitions: every row must produce identical results
// on one partition and on four, where the statement is one plan over the
// cut that walks each partitioned relation on every partition (or on the
// key's owner) and an unpartitioned one on partition 0. The four-partition
// answer is asked through every door of the snapshot read path:
// Store.Query, QueryPinned on a fresh pin, and Query on a caught-up
// follower, whose cut names no owner, so its keyed accesses read every
// partition. No shape is exempt: what a store answers does not depend on
// its partition count. An INSERT ... SELECT whose source joins two
// partitioned tables must insert the rows one partition inserts.
func TestMergeDifferentialOneVsManyPartitions(t *testing.T) {
	build := func(cfg Config) *Store {
		st := Open(cfg)
		if err := st.ExecScript(`
			CREATE TABLE m (k BIGINT PRIMARY KEY, g BIGINT, v BIGINT) PARTITION BY k;
			CREATE TABLE n (k BIGINT PRIMARY KEY, g BIGINT, w BIGINT) PARTITION BY k;
			CREATE TABLE r (id BIGINT PRIMARY KEY, label VARCHAR);
			CREATE STREAM s (g BIGINT, tag BIGINT);
			CREATE WINDOW sw ON s ROWS 100 SLIDE 1;
			CREATE TABLE dst (a BIGINT, b BIGINT, c BIGINT) PARTITION BY a;`); err != nil {
			t.Fatal(err)
		}
		// Rows arrive through a logged procedure so the follower replays them.
		if err := st.RegisterProcedure(&pe.Procedure{
			Name: "load", WriteSet: []string{"m"}, PartitionParam: 1,
			Handler: func(ctx *pe.ProcCtx) error {
				_, err := ctx.Exec("INSERT INTO m VALUES (?, ?, ?)", ctx.Params[0], ctx.Params[1], ctx.Params[2])
				return err
			},
		}); err != nil {
			t.Fatal(err)
		}
		return st
	}
	load := func(st *Store) *pe.Result {
		if err := st.Start(); err != nil {
			t.Fatal(err)
		}
		// 48 rows over 6 groups, one NULL v per group (NULL propagation is
		// where hand-rolled evaluators historically drifted).
		for k := int64(0); k < 48; k++ {
			v := types.NewInt(k % 7)
			if k%8 == 7 {
				v = types.Null
			}
			if _, err := st.Call("load", types.NewInt(k), types.NewInt(k%6), v); err != nil {
				t.Fatal(err)
			}
		}
		exec := func(q string, params ...types.Value) {
			if _, err := st.Exec(q, params...); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 12; i++ {
			exec("INSERT INTO n VALUES (?, ?, ?)", types.NewInt(i), types.NewInt(i%6), types.NewInt(i%5))
		}
		for i := int64(0); i < 6; i++ {
			exec("INSERT INTO r VALUES (?, ?)", types.NewInt(i), types.NewString(fmt.Sprint("r", i)))
		}
		exec("INSERT INTO r VALUES (100, 'r100')")
		for i := int64(0); i < 10; i++ {
			exec("INSERT INTO s VALUES (?, ?)", types.NewInt(i%6), types.NewInt(i))
		}
		res, err := st.Exec("INSERT INTO dst SELECT m.k, m.v, n.w FROM m JOIN n ON n.g = m.g WHERE n.k < ?", types.NewInt(10))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := build(Config{Partitions: 1})
	inserted := load(one)
	defer one.Stop()
	four := build(gcTestConfig(t.TempDir(), 4))
	if got := load(four); got.RowsAffected != inserted.RowsAffected || got.RowsAffected == 0 {
		t.Errorf("INSERT ... SELECT over a join of partitioned tables inserted %d rows on 4 partitions, %d on 1",
			got.RowsAffected, inserted.RowsAffected)
	}
	defer four.Stop()
	pin := four.PinSnapshot()
	defer pin.Release()
	f, err := NewFollower(build(Config{Partitions: 4}), four)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	rs := f.Session()
	rs.Forward(four.LSN())
	if _, err := rs.Query("SELECT COUNT(*) FROM m"); err != nil { // waits until caught up
		t.Fatal(err)
	}
	doors := []struct {
		name  string
		query func(string, ...types.Value) (*pe.Result, error)
	}{
		{"Store.Query", four.Query},
		{"QueryPinned", func(q string, p ...types.Value) (*pe.Result, error) { return four.QueryPinned(pin, q, p...) }},
		{"Follower.Query", f.Query},
	}

	type query struct {
		sql    string
		params []types.Value
	}
	queries := []query{
		{sql: "SELECT g, COUNT(*) FROM m GROUP BY g HAVING COUNT(*) > 7"},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g HAVING SUM(v) > 20"},
		{sql: "SELECT g FROM m GROUP BY g HAVING SUM(v) > 20"},
		{sql: "SELECT g, AVG(v) FROM m GROUP BY g HAVING AVG(v) >= 3"},
		{sql: "SELECT g FROM m GROUP BY g HAVING AVG(v) >= 3"},
		{sql: "SELECT g, MIN(v), MAX(v) FROM m GROUP BY g HAVING MAX(v) - MIN(v) >= 5"},
		{sql: "SELECT g, COUNT(v) FROM m GROUP BY g HAVING COUNT(v) < COUNT(*)"},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g HAVING SUM(v) + COUNT(*) > 28"},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g HAVING SUM(v) % 2 = 0"},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g HAVING SUM(v) > 20 AND COUNT(*) > 7"},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g HAVING SUM(v) > 25 OR AVG(v) < 3"},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g HAVING NOT (SUM(v) <= 20)"},
		{sql: "SELECT g, COUNT(*) FROM m GROUP BY g HAVING COUNT(*) > ?",
			params: []types.Value{types.NewInt(7)}},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g HAVING SUM(v) * ? > 40",
			params: []types.Value{types.NewInt(2)}},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g HAVING g >= 2"},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g HAVING g + 1 > SUM(v) / 10"},
		{sql: "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM m"},
		{sql: "SELECT AVG(v) FROM m"},
		{sql: "SELECT g, SUM(v) FROM m WHERE v IS NOT NULL GROUP BY g HAVING SUM(v) > 20"},
		{sql: "SELECT g, COUNT(*) FROM m WHERE v > 2 GROUP BY g HAVING COUNT(*) >= 3"},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g ORDER BY g"},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g HAVING SUM(v) > 15 ORDER BY 2 DESC, g"},
		{sql: "SELECT g, SUM(v) FROM m GROUP BY g ORDER BY g LIMIT 3"},
		// Expressions over aggregates in the projection.
		{sql: "SELECT g, SUM(v) / COUNT(v) FROM m GROUP BY g"},
		{sql: "SELECT SUM(v) / COUNT(v) FROM m"},
		{sql: "SELECT g, MAX(v) - MIN(v) FROM m GROUP BY g"},
		{sql: "SELECT g, SUM(v) + COUNT(*) AS s FROM m GROUP BY g ORDER BY s DESC, g"},
		{sql: "SELECT g, AVG(v) * 2 FROM m GROUP BY g"},
		{sql: "SELECT AVG(v) + 1 FROM m"},
		{sql: "SELECT g, COUNT(*) - COUNT(v) FROM m GROUP BY g"},
		{sql: "SELECT g, SUM(v) + g FROM m GROUP BY g"},
		{sql: "SELECT g, SUM(v) * ? FROM m GROUP BY g",
			params: []types.Value{types.NewInt(2)}},
		{sql: "SELECT g, SUM(v) / (COUNT(*) + ?) FROM m GROUP BY g",
			params: []types.Value{types.NewInt(1)}},
		{sql: "SELECT g, SUM(v), SUM(v) / COUNT(v) FROM m GROUP BY g HAVING SUM(v) > 15"},
		{sql: "SELECT g, SUM(v) % 5 FROM m GROUP BY g ORDER BY g LIMIT 4"},
		{sql: "SELECT g, SUM(v) / COUNT(v) AS r FROM m GROUP BY g HAVING COUNT(*) > 7 ORDER BY g"},
		// Grouping: without aggregates, by an expression, by a key the
		// projection leaves out or an alias shadows, HAVING on such a key.
		{sql: "SELECT g FROM m GROUP BY g ORDER BY g"},
		{sql: "SELECT k % 3, COUNT(*) FROM m GROUP BY k % 3"},
		{sql: "SELECT v % 2, SUM(k) FROM m GROUP BY v % 2 HAVING SUM(k) > 100"},
		{sql: "SELECT COUNT(*) FROM m GROUP BY g"},
		{sql: "SELECT k % 3 AS k, SUM(v) FROM m GROUP BY k"},
		{sql: "SELECT SUM(v) FROM m GROUP BY g HAVING g > 1"},
		// DISTINCT aggregates, and SELECT DISTINCT over aggregates.
		{sql: "SELECT COUNT(DISTINCT v) FROM m"},
		{sql: "SELECT g, COUNT(DISTINCT v), SUM(DISTINCT v) FROM m GROUP BY g"},
		{sql: "SELECT AVG(DISTINCT v) FROM m"},
		{sql: "SELECT DISTINCT COUNT(*) FROM m GROUP BY g"},
		{sql: "SELECT DISTINCT MAX(v) % 3 FROM m GROUP BY g"},
		// OFFSET, with ORDER BY and without (where any order gives one
		// answer).
		{sql: "SELECT k, v FROM m ORDER BY v DESC, k LIMIT 5 OFFSET 3"},
		{sql: "SELECT g, COUNT(*) FROM m GROUP BY g ORDER BY g LIMIT 2 OFFSET 2"},
		{sql: "SELECT k, v FROM m ORDER BY k OFFSET ?", params: []types.Value{types.NewInt(40)}},
		{sql: "SELECT k FROM m LIMIT 100 OFFSET 0"},
		{sql: "SELECT COUNT(*) FROM m LIMIT 1 OFFSET 1"},
		{sql: "SELECT SUM(v) FROM m OFFSET 0"},
		// Joins: two partitioned relations on a non-key column and on the
		// key (the inner probe reads the key's owner), self-joins, LEFT
		// JOIN onto a partitioned table, a replicated table on either side.
		{sql: "SELECT m.k, n.k FROM m JOIN n ON n.g = m.g WHERE m.v > 4"},
		{sql: "SELECT m.k, m.v, n.w FROM m JOIN n ON n.k = m.k"},
		{sql: "SELECT a.k, b.k FROM m a JOIN m b ON b.g = a.g AND b.k < a.k WHERE a.k < 12"},
		{sql: "SELECT COUNT(*) FROM m a JOIN m b ON a.v = b.v"},
		{sql: "SELECT r.id, m.v FROM r LEFT JOIN m ON m.k = r.id"},
		{sql: "SELECT m.k, n.w FROM m LEFT JOIN n ON n.k = m.k WHERE m.k < 20"},
		{sql: "SELECT n.k, COUNT(m.k) FROM n LEFT JOIN m ON m.g = n.g AND m.v = n.w GROUP BY n.k"},
		{sql: "SELECT m.k, r.label FROM m LEFT JOIN r ON r.id = m.k"},
		{sql: "SELECT COUNT(*) FROM m JOIN r ON r.id = 0"},
		// Subqueries over partitioned relations: in WHERE, in JOIN ON, and
		// a partitioned relation joined inside a subquery.
		{sql: "SELECT k FROM m WHERE g IN (SELECT g FROM n WHERE w > 3)"},
		{sql: "SELECT id FROM r WHERE id IN (SELECT k FROM m WHERE v = 2)"},
		{sql: "SELECT k FROM m WHERE k NOT IN (SELECT k FROM n)"},
		{sql: "SELECT COUNT(*) FROM m JOIN r ON r.id IN (SELECT k FROM n)"},
		{sql: "SELECT k FROM m WHERE k IN (SELECT r.id FROM r JOIN n ON n.k = r.id)"},
		// An unpartitioned stream and a window over it live on partition 0.
		{sql: "SELECT m.k, s.tag FROM m JOIN s ON s.g = m.g"},
		{sql: "SELECT k FROM m WHERE k IN (SELECT g FROM s)"},
		{sql: "SELECT m.k, sw.tag FROM m JOIN sw ON sw.g = m.g WHERE m.k < 8"},
		{sql: "SELECT k FROM m WHERE g IN (SELECT g FROM sw WHERE tag > 6)"},
		{sql: "SELECT sw.g, COUNT(*) FROM sw JOIN m ON m.g = sw.g GROUP BY sw.g"},
		// What INSERT ... SELECT put in a partitioned table.
		{sql: "SELECT a, b, c FROM dst"},
		// Keyed reads: the key in every spelling, beside other conjuncts
		// and under aggregation, and values that must not narrow (NULL;
		// '5' and 5.5 against BIGINT k).
		{sql: "SELECT k, g, v FROM m WHERE ? = k", params: []types.Value{types.NewInt(5)}},
		{sql: "SELECT m.k, m.v FROM m WHERE m.k = ?", params: []types.Value{types.NewInt(5)}},
		{sql: "SELECT x.k, x.v FROM m x WHERE x.k = ?", params: []types.Value{types.NewInt(5)}},
		{sql: "SELECT k, v FROM m WHERE k = ? AND v > 2", params: []types.Value{types.NewInt(5)}},
		{sql: "SELECT k, v FROM m WHERE k = ? AND v > 2", params: []types.Value{types.NewInt(1)}},
		{sql: "SELECT COUNT(*), SUM(v) FROM m WHERE k = ?", params: []types.Value{types.NewInt(5)}},
		{sql: "SELECT COUNT(*), SUM(v) FROM m WHERE k = ?", params: []types.Value{types.NewInt(1000)}},
		{sql: "SELECT k FROM m WHERE k = ?", params: []types.Value{types.Null}},
		{sql: "SELECT k, v FROM m WHERE k = ?", params: []types.Value{types.NewString("5")}},
		{sql: "SELECT k, v FROM m WHERE k = ?", params: []types.Value{types.NewFloat(5.0)}},
		{sql: "SELECT k, v FROM m WHERE k = ?", params: []types.Value{types.NewFloat(5.5)}},
		{sql: "SELECT k, v FROM m WHERE k = 5"},
		{sql: "SELECT k, v FROM m WHERE k = ? ORDER BY k LIMIT 5 OFFSET 1", params: []types.Value{types.NewInt(5)}},
		{sql: "SELECT k, v FROM m WHERE k = ? ORDER BY k LIMIT 5 OFFSET 0", params: []types.Value{types.NewInt(5)}},
		{sql: "SELECT k FROM m WHERE ? = k LIMIT 1 OFFSET 0", params: []types.Value{types.NewInt(5)}},
		{sql: "SELECT m.k FROM m WHERE m.k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.NewInt(5)}},
		{sql: "SELECT x.k FROM m x WHERE v >= 0 AND x.k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.NewInt(5)}},
		{sql: "SELECT k FROM m WHERE k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.NewFloat(5.0)}},
		{sql: "SELECT k FROM m WHERE k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.NewString("5")}},
		{sql: "SELECT k FROM m WHERE k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.NewFloat(5.5)}},
		{sql: "SELECT k FROM m WHERE k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.Null}},
		{sql: "SELECT k FROM m WHERE k = ? OR v = 2 ORDER BY k LIMIT 2 OFFSET 1", params: []types.Value{types.NewInt(5)}},
	}
	for k := int64(0); k <= 48; k++ { // every loaded key and one absent
		queries = append(queries, query{sql: "SELECT k, g, v FROM m WHERE k = ?", params: []types.Value{types.NewInt(k)}})
	}
	for _, q := range queries {
		a, err := one.Query(q.sql, q.params...)
		if err != nil {
			t.Fatalf("1 partition: %s: %v", q.sql, err)
		}
		for _, d := range doors {
			b, err := d.query(q.sql, q.params...)
			if err != nil {
				t.Errorf("4 partitions, %s: %s %v: %v", d.name, q.sql, q.params, err)
				continue
			}
			if got, want := canonRows(b, q.sql), canonRows(a, q.sql); got != want {
				t.Errorf("differential drift on %q %v:\n 1 partition: %s\n 4 partitions, %s: %s", q.sql, q.params, want, d.name, got)
			}
		}
	}
}

// canonRows renders a result for comparison. Ordered queries compare
// verbatim; unordered ones compare as sorted multisets.
func canonRows(res *pe.Result, sqlText string) string {
	lines := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		line := ""
		for _, v := range r {
			if v.IsNull() {
				line += "NULL|"
			} else if v.Type() == types.TypeFloat {
				line += fmt.Sprintf("%.9g|", v.Float())
			} else {
				line += v.String() + "|"
			}
		}
		lines = append(lines, line)
	}
	ordered := false
	for i := 0; i+8 <= len(sqlText); i++ {
		if sqlText[i:i+8] == "ORDER BY" {
			ordered = true
			break
		}
	}
	if !ordered {
		sort.Strings(lines)
	}
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

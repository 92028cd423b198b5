package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
)

// TestMergeDifferentialOneVsManyPartitions is the differential oracle for
// the fan-out merge: every supported HAVING / aggregate-expression shape
// must produce identical results on one partition (no merge — the engine
// executes the statement whole) and on four (legs + post-merge HAVING via
// the shared ee evaluator). Any drift between the two evaluators shows up
// as a row-set mismatch. The four-partition answer is asked through every
// door of the snapshot read path: Store.Query, QueryPinned on a fresh pin,
// and Query on a caught-up follower. Keyed rows bind the partition key by
// equality: the primary's doors read the key's owner alone, the follower
// fans out, so a shape only the merge refuses (OFFSET) is answered by the
// primary's doors and refused by the follower's; a value that must not
// prune is refused by every door.
func TestMergeDifferentialOneVsManyPartitions(t *testing.T) {
	build := func(cfg Config) *Store {
		st := Open(cfg)
		if err := st.ExecScript(`CREATE TABLE m (k BIGINT PRIMARY KEY, g BIGINT, v BIGINT) PARTITION BY k;`); err != nil {
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
	load := func(st *Store) {
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
	}
	one := build(Config{Partitions: 1})
	load(one)
	defer one.Stop()
	four := build(gcTestConfig(t.TempDir(), 4))
	load(four)
	defer four.Stop()
	pin := four.PinSnapshot()
	defer pin.Release()
	f, err := NewFollower(build(Config{Partitions: 4}), StoreSource{St: four}, FollowerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	defer f.Store().Stop()
	rs := f.Session()
	rs.Forward(four.LSNVector())
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
		sql     string
		params  []types.Value
		keyed   bool // answered only where the key names one partition
		fansOut bool // an OFFSET shape every four-partition door refuses
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
		// Expressions over aggregates in the projection: legs compute the
		// contained aggregates, the router evaluates the expression over
		// the merged partials.
		{sql: "SELECT g, SUM(v) / COUNT(v) FROM m GROUP BY g"},
		{sql: "SELECT SUM(v) / COUNT(v) FROM m"},
		{sql: "SELECT g, MAX(v) - MIN(v) FROM m GROUP BY g"},
		{sql: "SELECT g, SUM(v) + COUNT(*) AS s FROM m GROUP BY g ORDER BY s DESC, g"},
		{sql: "SELECT g, AVG(v) * 2 FROM m GROUP BY g"},
		{sql: "SELECT g, COUNT(*) - COUNT(v) FROM m GROUP BY g"},
		{sql: "SELECT g, SUM(v) + g FROM m GROUP BY g"},
		{sql: "SELECT g, SUM(v) * ? FROM m GROUP BY g",
			params: []types.Value{types.NewInt(2)}},
		{sql: "SELECT g, SUM(v) / (COUNT(*) + ?) FROM m GROUP BY g",
			params: []types.Value{types.NewInt(1)}},
		{sql: "SELECT g, SUM(v), SUM(v) / COUNT(v) FROM m GROUP BY g HAVING SUM(v) > 15"},
		{sql: "SELECT g, SUM(v) % 5 FROM m GROUP BY g ORDER BY g LIMIT 4"},
		{sql: "SELECT g, SUM(v) / COUNT(v) AS r FROM m GROUP BY g HAVING COUNT(*) > 7 ORDER BY g"},
		// Keyed reads: the key in every spelling the router recognizes,
		// beside other conjuncts and under aggregation, and values that
		// must not prune (NULL; '5' and 5.5 against BIGINT k).
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
		{sql: "SELECT k, v FROM m WHERE k = ? ORDER BY k LIMIT 5 OFFSET 1", params: []types.Value{types.NewInt(5)}, keyed: true},
		{sql: "SELECT k, v FROM m WHERE k = ? ORDER BY k LIMIT 5 OFFSET 0", params: []types.Value{types.NewInt(5)}, keyed: true},
		{sql: "SELECT k FROM m WHERE ? = k LIMIT 1 OFFSET 0", params: []types.Value{types.NewInt(5)}, keyed: true},
		{sql: "SELECT m.k FROM m WHERE m.k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.NewInt(5)}, keyed: true},
		{sql: "SELECT x.k FROM m x WHERE v >= 0 AND x.k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.NewInt(5)}, keyed: true},
		{sql: "SELECT k FROM m WHERE k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.NewFloat(5.0)}, keyed: true},
		{sql: "SELECT k FROM m WHERE k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.NewString("5")}, fansOut: true},
		{sql: "SELECT k FROM m WHERE k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.NewFloat(5.5)}, fansOut: true},
		{sql: "SELECT k FROM m WHERE k = ? LIMIT 1 OFFSET 0", params: []types.Value{types.Null}, fansOut: true},
		{sql: "SELECT k FROM m WHERE k = ? OR v = 2 LIMIT 1 OFFSET 0", params: []types.Value{types.NewInt(5)}, fansOut: true},
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
			if q.fansOut || q.keyed && d.name == "Follower.Query" {
				if err == nil {
					t.Errorf("%s answered %q %v, which only a keyed read can", d.name, q.sql, q.params)
				}
				continue
			}
			if err != nil {
				t.Fatalf("4 partitions, %s: %s: %v", d.name, q.sql, err)
			}
			if got, want := canonRows(b, q.sql), canonRows(a, q.sql); got != want {
				t.Errorf("differential drift on %q:\n 1 partition: %s\n 4 partitions, %s: %s", q.sql, want, d.name, got)
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

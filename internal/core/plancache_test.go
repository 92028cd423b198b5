package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ee"
	"repro/internal/pe"
	"repro/internal/sql"
	"repro/internal/types"
)

// TestPlanCachesStayBounded sends 100 000 distinct statement texts to a
// two-partition store — point reads with the key as a literal, a rewritten-leg
// HAVING shape with a literal, and ad-hoc INSERTs — and checks that every
// partition's plan cache and the parse cache end at or under their bound,
// while a procedure statement run now and then on every partition is still
// cached: a client sending ad-hoc SQL cannot grow the server's memory
// without limit, nor evict a hot plan.
func TestPlanCachesStayBounded(t *testing.T) {
	st := Open(Config{Partitions: 2})
	if err := st.ExecScript(`
		CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;
		CREATE TABLE small (k BIGINT PRIMARY KEY, g BIGINT) PARTITION BY k;`); err != nil {
		t.Fatal(err)
	}
	const hotSQL = "SELECT v FROM kv WHERE k = ?"
	if err := st.RegisterProcedure(&pe.Procedure{
		Name: "get", PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Exec(hotSQL, ctx.Params[0])
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for k := int64(0); k < 8; k++ {
		if _, err := st.Exec("INSERT INTO small VALUES (?, ?)", types.NewInt(k), types.NewInt(k%3)); err != nil {
			t.Fatal(err)
		}
	}
	// One key owned by each partition, so the hot statement runs on both.
	var hotKeys []types.Value
	for k, seen := int64(0), map[int]bool{}; len(hotKeys) < st.NumPartitions(); k++ {
		if p := st.partitionFor(types.NewInt(-1 - k)); !seen[p] {
			seen[p] = true
			hotKeys = append(hotKeys, types.NewInt(-1-k))
		}
	}

	const texts = 100000
	for i := 0; i < texts; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, err = st.Query(fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i))
		case 1:
			_, err = st.Query(fmt.Sprintf("SELECT g, COUNT(*) FROM small GROUP BY g HAVING COUNT(*) > %d", i))
		case 2:
			_, err = st.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", i))
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			for _, k := range hotKeys {
				if _, err := st.Call("get", k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	if n, limit := sql.ParseCacheSize(); n > limit {
		t.Errorf("parse cache holds %d statements, bound %d", n, limit)
	}
	hot := ee.PlanKey{Proc: "get", Text: hotSQL}
	for i, p := range st.partList() {
		if n, limit := p.ee.PlanCacheSize(); n > limit {
			t.Errorf("partition %d: plan cache holds %d plans, bound %d", i, n, limit)
		}
		if _, err := p.ee.Plan(hot, func() (*ee.Prepared, error) { return nil, errors.New("evicted") }); err != nil {
			t.Errorf("partition %d: the hot procedure statement was %v", i, err)
		}
	}
}

package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ee"
	"repro/internal/types"
)

// storageState renders what the Schema puts on each partition: every
// relation with its kind, storage indexes and, with rows set, live rows,
// plus whether the partition is synced to the published Schema.
func storageState(st *Store, rows bool) string {
	var b strings.Builder
	sch := st.schema.Load()
	for _, p := range st.partList() {
		fmt.Fprintf(&b, "p%d synced=%v:", p.idx, p.cat.Schema() == sch)
		for _, name := range p.cat.Names() {
			rel := p.cat.Relation(name)
			var ixs []string
			for _, ix := range rel.Table.Indexes() {
				ixs = append(ixs, ix.Name())
			}
			fmt.Fprintf(&b, " %s(%s ix=%v)", name, rel.Kind, ixs)
			if rows {
				fmt.Fprintf(&b, "[%d rows]", rel.Table.Count())
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestExecScriptAllOrNothing: a script that fails on any statement, or on
// any partition, leaves every partition's relations, rows and indexes and
// the published Schema as they were, and the corrected script then applies.
// A started store refuses DDL outright.
func TestExecScriptAllOrNothing(t *testing.T) {
	const table = "(k BIGINT PRIMARY KEY, v BIGINT)"
	st := Open(Config{Partitions: 2})
	if err := st.ExecScript("CREATE TABLE a " + table + " PARTITION BY k; CREATE TABLE u " + table +
		"; CREATE TABLE seeded " + table + ";"); err != nil {
		t.Fatal(err)
	}
	// u is unique on v on partition 0 and not on partition 1, so a unique
	// index over it fails on partition 1 only, after partition 0 built it.
	seed := func(part int, rel string, rows ...[2]int64) {
		t.Helper()
		var rs []types.Row
		for _, r := range rows {
			rs = append(rs, types.Row{types.NewInt(r[0]), types.NewInt(r[1])})
		}
		if _, err := st.EEAt(part).InsertRows(&ee.ExecCtx{}, rel, rs); err != nil {
			t.Fatal(err)
		}
	}
	seed(0, "u", [2]int64{1, 10}, [2]int64{2, 20})
	seed(1, "u", [2]int64{1, 10}, [2]int64{2, 10})
	seed(0, "seeded", [2]int64{1, 1})

	cases := []struct {
		name, bad, want, fixed string
	}{
		{"duplicate relation", "CREATE TABLE b " + table + "; CREATE TABLE a " + table + ";",
			"already exists", "CREATE TABLE b " + table + "; CREATE TABLE c " + table + ";"},
		{"unknown index column", "CREATE TABLE d " + table + "; CREATE INDEX nope ON d (zz);",
			"unknown column", "CREATE TABLE d " + table + "; CREATE INDEX d_v ON d (v);"},
		{"unique index over one partition's duplicates",
			"DROP TABLE seeded; CREATE INDEX a_v ON a (v); CREATE UNIQUE INDEX u_v ON u (v);",
			"duplicate key", "DROP TABLE seeded; CREATE INDEX a_v ON a (v); CREATE INDEX u_v ON u (v);"},
	}
	for _, tc := range cases {
		before, sch := storageState(st, true), st.schema.Load()
		err := st.ExecScript(tc.bad)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if after := storageState(st, true); after != before || st.schema.Load() != sch {
			t.Fatalf("%s: the failed script changed the store:\nbefore\n%safter\n%s", tc.name, before, after)
		}
		if err := st.ExecScript(tc.fixed); err != nil {
			t.Fatalf("%s: corrected script: %v", tc.name, err)
		}
		if st.schema.Load() == sch || strings.Contains(storageState(st, true), "synced=false") {
			t.Fatalf("%s: corrected script not published to every partition:\n%s", tc.name, storageState(st, true))
		}
	}

	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	before, sch := storageState(st, true), st.schema.Load()
	if err := st.ExecScript("CREATE TABLE late " + table + ";"); err == nil {
		t.Fatal("DDL on a started store accepted")
	}
	if storageState(st, true) != before || st.schema.Load() != sch {
		t.Fatalf("refused DDL changed the store:\n%s", storageState(st, true))
	}
}

// TestDropObeysItsKind: DROP INDEX drops the index, even where a relation
// shares its name, and DROP TABLE / STREAM / WINDOW refuse a relation of
// another kind.
func TestDropObeysItsKind(t *testing.T) {
	st := Open(Config{Partitions: 2})
	if err := st.ExecScript(`
		CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;
		CREATE INDEX by_v ON kv (v);
		CREATE TABLE by_w (k BIGINT PRIMARY KEY);
		CREATE INDEX by_w ON kv (v, k);
		CREATE STREAM s (k BIGINT);
		CREATE WINDOW w ON s ROWS 4 SLIDE 2;`); err != nil {
		t.Fatal(err)
	}
	for _, drop := range []struct{ stmt, want string }{
		{"DROP STREAM kv", `"kv" is a TABLE`},
		{"DROP TABLE s", `"s" is a STREAM`},
		{"DROP WINDOW kv", `"kv" is a TABLE`},
		{"DROP STREAM w", `"w" is a WINDOW`},
	} {
		if err := st.ExecScript(drop.stmt); err == nil || !strings.Contains(err.Error(), drop.want) {
			t.Fatalf("%s: err = %v, want one containing %q", drop.stmt, err, drop.want)
		}
	}
	if err := st.ExecScript("DROP INDEX by_v; DROP INDEX by_w; DROP INDEX IF EXISTS by_v;"); err != nil {
		t.Fatal(err)
	}
	if err := st.ExecScript("DROP INDEX by_v"); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("dropping a dropped index: %v", err)
	}
	for _, p := range st.partList() {
		for _, name := range []string{"kv", "by_w", "s", "w"} {
			if p.cat.Relation(name) == nil {
				t.Fatalf("partition %d lost relation %s", p.idx, name)
			}
		}
		if ixs := p.cat.Relation("kv").Table.Indexes(); len(ixs) != 1 || ixs[0].Name() != "kv_pkey" {
			t.Fatalf("partition %d: kv keeps indexes %v, want only its primary key", p.idx, ixs)
		}
	}
	if ixs := st.schema.Load().Relation("kv").Indexes; len(ixs) != 0 {
		t.Fatalf("Schema keeps kv's indexes %v", ixs)
	}
	// A name dropped and re-created in one script gets the new columns.
	if err := st.ExecScript("CREATE INDEX by_v ON kv (k)"); err != nil {
		t.Fatal(err)
	}
	if err := st.ExecScript("DROP INDEX by_v; CREATE INDEX by_v ON kv (v)"); err != nil {
		t.Fatal(err)
	}
	for _, p := range st.partList() {
		if ix := p.cat.Relation("kv").Table.IndexByName("by_v"); ix == nil || fmt.Sprint(ix.Columns()) != "[1]" {
			t.Fatalf("partition %d: by_v = %v, want an index on column 1", p.idx, ix)
		}
	}
}

// TestRebalanceSchemaAgreement: partitions added by Rebalance are synced to
// the one Schema — after CREATE and DROP INDEX, a window and a deployed,
// then paused, dataflow — hold the same relations and indexes as the old
// ones, and keep the graph paused.
func TestRebalanceSchemaAgreement(t *testing.T) {
	st := dfStore(t, Config{Partitions: 2})
	if err := st.ExecScript(`
		CREATE INDEX sink_n ON sink (n);
		CREATE INDEX sink_k_n ON sink (k, n);
		DROP INDEX sink_n;
		CREATE WINDOW recent ON feed ROWS 4 SLIDE 2;`); err != nil {
		t.Fatal(err)
	}
	if err := st.Deploy(pipelineDF()); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	// Routers read the Schema while pause and resume publish new ones.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := int64(0); k < 300; k++ {
			if err := st.Ingest("feed", types.Row{types.NewInt(k), types.NewInt(1)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Query("SELECT COUNT(*) FROM sink WHERE n > 0"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if err := st.PauseDataflow("pipeline"); err != nil {
			t.Fatal(err)
		}
		if err := st.ResumeDataflow("pipeline"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	st.FlushBatches()
	st.Drain()
	if err := st.PauseDataflow("pipeline"); err != nil {
		t.Fatal(err)
	}
	shown := fmt.Sprint(st.DataflowsResult().Rows)
	if err := st.Rebalance(4); err != nil {
		t.Fatal(err)
	}
	sch := st.schema.Load()
	state := storageState(st, false)
	lines := strings.Split(strings.TrimSpace(state), "\n")
	if len(lines) != 4 {
		t.Fatalf("state of %d partitions:\n%s", len(lines), state)
	}
	for i, l := range lines {
		if p := st.partList()[i]; p.cat.Schema() != sch {
			t.Fatalf("partition %d is synced to another Schema", i)
		}
		if _, rels, _ := strings.Cut(l, ":"); !strings.Contains(rels, "ix=[sink_pkey sink_k_n]") ||
			!strings.Contains(rels, "recent(WINDOW") || rels != strings.SplitN(lines[0], ":", 2)[1] {
			t.Fatalf("partition %d differs from partition 0:\n%s", i, state)
		}
	}
	// A paused graph keeps a flushed partial batch queued.
	for i := 2; i < 4; i++ {
		if err := st.PEAt(i).Ingest("feed", types.Row{types.NewInt(int64(i)), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()
	for i := 2; i < 4; i++ {
		if n := st.PEAt(i).PartialLen("feed"); n != 1 {
			t.Fatalf("newcomer %d dispatched its feed backlog (%d queued): the graph is not paused there", i, n)
		}
	}
	if got := fmt.Sprint(st.DataflowsResult().Rows); got != shown {
		t.Fatalf("SHOW DATAFLOWS = %s after the rebalance, was %s", got, shown)
	}
}

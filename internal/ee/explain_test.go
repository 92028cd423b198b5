package ee

import (
	"strings"
	"testing"
)

func TestExplainAccessPaths(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	cases := []struct {
		sql  string
		want []string
	}{
		{
			"SELECT name FROM contestants WHERE id = ?",
			[]string{"via index contestants_pkey (equality probe)"},
		},
		{
			"SELECT phone FROM votes WHERE candidate = 3",
			[]string{"via index votes_by_candidate (equality probe)"},
		},
		{
			"SELECT phone FROM votes WHERE phone BETWEEN 1 AND 9",
			[]string{"via index votes_pkey (bounded range)"},
		},
		{
			"SELECT phone FROM votes WHERE ts > 5",
			[]string{"votes (full scan)"},
		},
		{
			"SELECT c.name FROM votes v JOIN contestants c ON c.id = v.candidate",
			[]string{"scan: votes (full scan)", "join: contestants via index contestants_pkey"},
		},
		{
			"SELECT candidate, COUNT(*) FROM votes GROUP BY candidate ORDER BY candidate LIMIT 5",
			[]string{"aggregate: 1 keys, 1 aggregates", "sort: 1 keys", "limit/offset"},
		},
		{
			"SELECT COUNT(*) FROM votes HAVING COUNT(*) > 1 LIMIT 1",
			[]string{"count: votes (counted by storage, no row read)", "aggregate: 0 keys, 2 aggregates, having"},
		},
		{
			"SELECT COUNT(*), COUNT(ts) FROM votes",
			[]string{"scan: votes (full scan)"},
		},
		{
			"UPDATE votes SET ts = 0 WHERE phone = 5",
			[]string{"UPDATE votes", "via index votes_pkey (equality probe)"},
		},
		{
			"DELETE FROM votes WHERE candidate IN (SELECT id FROM contestants)",
			[]string{"DELETE from votes", "subquery 0 (materialized once)", "contestants (full scan)"},
		},
	}
	for _, c := range cases {
		got, err := e.ExplainSQL(c.sql, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("EXPLAIN %q missing %q:\n%s", c.sql, w, got)
			}
		}
	}
}

func TestExplainInsert(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	got, err := e.ExplainSQL("INSERT INTO votes VALUES (1, 2, 3)", 1)
	if err != nil || !strings.Contains(got, "INSERT into votes (1 literal rows)") {
		t.Fatalf("explain insert: %q %v", got, err)
	}
	got, err = e.ExplainSQL("INSERT INTO votes SELECT phone, candidate, ts FROM votes", 1)
	if err != nil || !strings.Contains(got, "from query") {
		t.Fatalf("explain insert-select: %q %v", got, err)
	}
}

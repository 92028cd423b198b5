// Leaderboard: a compact version of the paper's §3.1 Voter workflow built
// entirely on the public API. Two stored procedures form a workflow —
// validate → count — wired by PE triggers; a ROWS-20 window plus an EE
// trigger keeps a "trending" leaderboard current; every 10th vote the
// weakest candidate is eliminated, inside the workflow's serial schedule.
package main

import (
	"fmt"
	"log"

	sstore "repro"
)

func main() {
	st := sstore.Open(sstore.Config{})
	if err := st.ExecScript(`
		CREATE TABLE candidates (id INT PRIMARY KEY, name VARCHAR NOT NULL);
		CREATE TABLE tally (candidate INT PRIMARY KEY, n BIGINT DEFAULT 0);
		CREATE TABLE total (id INT PRIMARY KEY, n BIGINT DEFAULT 0);
		CREATE TABLE trend (candidate INT PRIMARY KEY, n BIGINT DEFAULT 0);
		CREATE STREAM votes_in (voter BIGINT, candidate INT);
		CREATE STREAM good_votes (voter BIGINT, candidate INT);
		CREATE WINDOW last20 ON good_votes ROWS 20 SLIDE 1;
	`); err != nil {
		log.Fatal(err)
	}
	validate := &sstore.Procedure{
		Name:     "validate",
		ReadSet:  []string{"candidates"},
		WriteSet: []string{},
		Handler: func(ctx *sstore.ProcCtx) error {
			for _, v := range ctx.Batch {
				row, err := ctx.QueryRow("SELECT id FROM candidates WHERE id = ?", v[1])
				if err != nil {
					return err
				}
				if row == nil {
					continue // unknown candidate
				}
				if err := ctx.Emit("good_votes", v); err != nil {
					return err
				}
			}
			return nil
		},
	}
	count := &sstore.Procedure{
		Name:     "count",
		ReadSet:  []string{"total", "tally", "candidates"},
		WriteSet: []string{"tally", "total", "candidates", "trend"},
		Handler: func(ctx *sstore.ProcCtx) error {
			for _, v := range ctx.Batch {
				if _, err := ctx.Exec("UPDATE tally SET n = n + 1 WHERE candidate = ?", v[1]); err != nil {
					return err
				}
				if _, err := ctx.Exec("UPDATE total SET n = n + 1 WHERE id = 0"); err != nil {
					return err
				}
				tot, err := ctx.QueryRow("SELECT n FROM total WHERE id = 0")
				if err != nil {
					return err
				}
				if tot[0].Int()%10 != 0 {
					continue
				}
				// Eliminate the weakest candidate, atomically with this count.
				low, err := ctx.QueryRow(
					"SELECT candidate FROM tally ORDER BY n ASC, candidate ASC LIMIT 1")
				if err != nil || low == nil {
					return err
				}
				for _, q := range []string{
					"DELETE FROM candidates WHERE id = ?",
					"DELETE FROM tally WHERE candidate = ?",
					"DELETE FROM trend WHERE candidate = ?",
				} {
					if _, err := ctx.Exec(q, low[0]); err != nil {
						return err
					}
				}
				fmt.Printf("eliminated candidate %d at total=%d\n", low[0].Int(), tot[0].Int())
			}
			return nil
		},
	}
	for _, p := range []*sstore.Procedure{validate, count} {
		if err := st.RegisterProcedure(p); err != nil {
			log.Fatal(err)
		}
	}
	// The validate → count workflow, its stream edges, and the trending
	// window's EE trigger deploy together as one graph. Deploy also
	// reports the forced-serial constraint (validate and count touch
	// shared writable tables), visible via EXPLAIN DATAFLOW leaderboard.
	if err := st.Deploy(&sstore.Dataflow{
		Name: "leaderboard",
		Nodes: []sstore.DataflowNode{
			{Proc: "validate", Input: "votes_in", Batch: 1, Emits: []string{"good_votes"}},
			{Proc: "count", Input: "good_votes", Batch: 1},
		},
		Triggers: []sstore.DataflowTrigger{{
			Name:     "trending",
			Relation: "last20",
			Bodies: []string{
				"UPDATE trend SET n = n + 1 WHERE candidate IN (SELECT candidate FROM inserted)",
				"UPDATE trend SET n = n - 1 WHERE candidate IN (SELECT candidate FROM expired)",
			},
		}},
	}); err != nil {
		log.Fatal(err)
	}
	// The engine's own rendering of the graph. The trigger's plans are the
	// part to read: each body is driven from the window's delta (the one
	// vote that entered, the one that expired) through trend's key, so a
	// slide costs the same however many candidates there are.
	plan, err := st.ExplainDataflow("leaderboard")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)
	if err := st.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := st.Stop(); err != nil {
			log.Printf("stop: %v", err)
		}
	}()

	if _, err := st.Exec("INSERT INTO total VALUES (0, 0)"); err != nil {
		log.Fatal(err)
	}
	// Seed four candidates and their zero rows.
	seed := []string{"ada", "grace", "edsger", "barbara"}
	for i, n := range seed {
		for _, q := range []string{
			"INSERT INTO candidates VALUES (?, '" + n + "')",
			"INSERT INTO tally (candidate, n) VALUES (?, 0)",
			"INSERT INTO trend (candidate, n) VALUES (?, 0)",
		} {
			if _, err := st.Exec(q, sstore.Int(int64(i+1))); err != nil {
				log.Fatal(err)
			}
		}
	}

	// 30 votes, skewed toward candidate 1; candidate popularity decides
	// the eliminations deterministically.
	pattern := []int64{1, 2, 1, 3, 1, 2, 4, 1, 2, 1, 3, 1, 2, 1, 1, 2, 3, 1, 2, 1, 1, 2, 1, 3, 1, 2, 1, 1, 2, 1}
	for i, c := range pattern {
		if err := st.Ingest("votes_in", sstore.Row{sstore.Int(int64(1000 + i)), sstore.Int(c)}); err != nil {
			log.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()

	board, err := st.Query(`SELECT c.name, t.n FROM tally t
		JOIN candidates c ON c.id = t.candidate ORDER BY t.n DESC, c.id`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("final board:")
	for _, r := range board.Rows {
		fmt.Printf("  %-8s %d\n", r[0].Str(), r[1].Int())
	}
	trend, err := st.Query(`SELECT c.name, t.n FROM trend t
		JOIN candidates c ON c.id = t.candidate WHERE t.n > 0 ORDER BY t.n DESC, c.id`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trending (last 20 valid votes):")
	for _, r := range trend.Rows {
		fmt.Printf("  %-8s %d\n", r[0].Str(), r[1].Int())
	}
}

// Durable: command logging, snapshots, and recovery (H-Store-style fault
// tolerance with upstream backup for streams, §2). The program runs a
// small workflow with durability enabled, "crashes" (stops without a final
// checkpoint), then reopens the same directory and shows the state
// restored by snapshot + log replay.
package main

import (
	"fmt"
	"log"
	"os"

	sstore "repro"
)

func build(dir string) *sstore.Store {
	// Group commit: commits are durable before they are acknowledged, but
	// the fsync cost amortizes over whatever commits between one fsync and
	// the next instead of hitting every transaction's critical path. The
	// deposits below are stream input nobody waits on: they start no fsync
	// and ride the next one (at most 2ms later).
	st := sstore.Open(sstore.Config{Dir: dir, Sync: sstore.SyncGroupCommit})
	if err := st.ExecScript(`
		CREATE TABLE account (id INT PRIMARY KEY, balance BIGINT DEFAULT 0);
		CREATE STREAM deposits (id INT, amount BIGINT);
	`); err != nil {
		log.Fatal(err)
	}
	if err := st.RegisterProcedure(&sstore.Procedure{
		Name: "apply_deposit",
		Handler: func(ctx *sstore.ProcCtx) error {
			for _, d := range ctx.Batch {
				res, err := ctx.Exec("UPDATE account SET balance = balance + ? WHERE id = ?", d[1], d[0])
				if err != nil {
					return err
				}
				if res.RowsAffected == 0 {
					if _, err := ctx.Exec("INSERT INTO account VALUES (?, ?)", d[0], d[1]); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}); err != nil {
		log.Fatal(err)
	}
	// The graph is deployed again on every open, like the DDL above:
	// recovery replays the logged deposits through it.
	if err := st.Deploy(&sstore.Dataflow{
		Name:  "deposits",
		Nodes: []sstore.DataflowNode{{Proc: "apply_deposit", Input: "deposits", Batch: 1}},
	}); err != nil {
		log.Fatal(err)
	}
	return st
}

func main() {
	dir, err := os.MkdirTemp("", "sstore-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Phase 1: ingest, checkpoint mid-way, ingest more, crash.
	st := build(dir)
	if err := st.Start(); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.Ingest("deposits",
			sstore.Row{sstore.Int(int64(i % 2)), sstore.Int(100)}); err != nil {
			log.Fatal(err)
		}
	}
	st.Drain()
	if err := st.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint written after 6 deposits")
	for i := 0; i < 4; i++ {
		if err := st.Ingest("deposits",
			sstore.Row{sstore.Int(int64(i % 2)), sstore.Int(50)}); err != nil {
			log.Fatal(err)
		}
	}
	st.Drain()
	before, _ := st.Query("SELECT id, balance FROM account ORDER BY id")
	fmt.Println("state at crash:")
	for _, r := range before.Rows {
		fmt.Printf("  account %d: %d\n", r[0].Int(), r[1].Int())
	}
	if err := st.Stop(); err != nil { // crash: 4 deposits exist only in the command log
		log.Fatal(err)
	}

	// Phase 2: reopen — snapshot restores the first 6 deposits, log replay
	// re-executes the last 4 through the workflow.
	st2 := build(dir)
	if err := st2.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := st2.Stop(); err != nil {
			log.Printf("stop: %v", err)
		}
	}()
	after, _ := st2.Query("SELECT id, balance FROM account ORDER BY id")
	fmt.Println("state after recovery:")
	for _, r := range after.Rows {
		fmt.Printf("  account %d: %d\n", r[0].Int(), r[1].Int())
	}
}

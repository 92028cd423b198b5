package sstore_test

import (
	"fmt"
	"log"

	sstore "repro"
)

// Example shows the smallest complete program: a one-node dataflow whose
// stream feeds a stored procedure (PE trigger) filtering hot readings into
// a table.
func Example() {
	st := sstore.Open(sstore.Config{})
	if err := st.ExecScript(`
		CREATE STREAM readings (sensor INT, temp FLOAT);
		CREATE TABLE alarms (sensor INT, temp FLOAT);
	`); err != nil {
		log.Fatal(err)
	}
	if err := st.RegisterProcedure(&sstore.Procedure{
		Name: "detect",
		Handler: func(ctx *sstore.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO alarms SELECT sensor, temp FROM batch WHERE temp > 90.0")
			return err
		},
	}); err != nil {
		log.Fatal(err)
	}
	if err := st.Deploy(&sstore.Dataflow{
		Name:  "alarms",
		Nodes: []sstore.DataflowNode{{Proc: "detect", Input: "readings", Batch: 2}},
	}); err != nil {
		log.Fatal(err)
	}
	if err := st.Start(); err != nil {
		log.Fatal(err)
	}
	defer st.Stop()

	for _, temp := range []float64{72, 95, 71, 99} {
		if err := st.Ingest("readings", sstore.Row{sstore.Int(1), sstore.Float(temp)}); err != nil {
			log.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()
	res, err := st.Query("SELECT temp FROM alarms ORDER BY temp")
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Rows {
		fmt.Println(r[0].Float())
	}
	// Output:
	// 95
	// 99
}

// ExampleStore_Deploy_trigger shows an EE trigger deployed with its
// dataflow keeping a derived table current inside the ingesting
// transaction, using the window delta pseudo-relations.
func ExampleStore_Deploy_trigger() {
	st := sstore.Open(sstore.Config{})
	if err := st.ExecScript(`
		CREATE STREAM ticks (sym INT, px FLOAT);
		CREATE WINDOW last3 ON ticks ROWS 3 SLIDE 1;
		CREATE TABLE freq (sym INT PRIMARY KEY, n BIGINT DEFAULT 0);
	`); err != nil {
		log.Fatal(err)
	}
	if err := st.RegisterProcedure(&sstore.Procedure{
		Name:    "sink",
		Handler: func(ctx *sstore.ProcCtx) error { return nil },
	}); err != nil {
		log.Fatal(err)
	}
	if err := st.Deploy(&sstore.Dataflow{
		Name:  "ticker",
		Nodes: []sstore.DataflowNode{{Proc: "sink", Input: "ticks", Batch: 1}},
		Triggers: []sstore.DataflowTrigger{{Name: "f", Relation: "last3", Bodies: []string{
			"UPDATE freq SET n = n + 1 WHERE sym IN (SELECT sym FROM inserted)",
			"UPDATE freq SET n = n - 1 WHERE sym IN (SELECT sym FROM expired)",
		}}},
	}); err != nil {
		log.Fatal(err)
	}
	if err := st.Start(); err != nil {
		log.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.Exec("INSERT INTO freq (sym, n) VALUES (1, 0)"); err != nil {
		log.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		if err := st.Ingest("ticks", sstore.Row{sstore.Int(1), sstore.Float(100)}); err != nil {
			log.Fatal(err)
		}
	}
	st.Drain()
	res, err := st.Query("SELECT n FROM freq WHERE sym = 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Rows[0][0].Int()) // symbol count within the 3-tick window
	// Output:
	// 3
}

// ExampleStore_Call shows the OLTP side: a parameterized stored procedure
// invoked as one ACID transaction.
func ExampleStore_Call() {
	st := sstore.Open(sstore.Config{})
	if err := st.ExecScript("CREATE TABLE acct (id INT PRIMARY KEY, bal BIGINT)"); err != nil {
		log.Fatal(err)
	}
	if err := st.RegisterProcedure(&sstore.Procedure{
		Name: "open_acct",
		Handler: func(ctx *sstore.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO acct VALUES (?, ?)", ctx.Params[0], ctx.Params[1])
			return err
		},
	}); err != nil {
		log.Fatal(err)
	}
	if err := st.Start(); err != nil {
		log.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.Call("open_acct", sstore.Int(1), sstore.Int(500)); err != nil {
		log.Fatal(err)
	}
	// Duplicate account: the transaction aborts atomically.
	if _, err := st.Call("open_acct", sstore.Int(1), sstore.Int(9)); err != nil {
		fmt.Println("second open rejected")
	}
	res, _ := st.Query("SELECT bal FROM acct WHERE id = 1")
	fmt.Println(res.Rows[0][0].Int())
	// Output:
	// second open rejected
	// 500
}

// ExampleStore_Deploy declares a two-stage workflow as one named dataflow
// graph — nodes, stream edges, batch sizes — deploys it atomically, and
// drives its lifecycle by name: pause (border ingest queues), resume
// (nothing lost), and catalog introspection via SHOW DATAFLOWS.
func ExampleStore_Deploy() {
	st := sstore.Open(sstore.Config{})
	if err := st.ExecScript(`
		CREATE STREAM readings (sensor INT, temp FLOAT);
		CREATE STREAM hot (sensor INT, temp FLOAT);
		CREATE TABLE alarms (sensor INT, temp FLOAT);
	`); err != nil {
		log.Fatal(err)
	}
	for _, p := range []*sstore.Procedure{
		{
			Name: "filter",
			Handler: func(ctx *sstore.ProcCtx) error {
				for _, r := range ctx.Batch {
					if r[1].Float() > 90 {
						if err := ctx.Emit("hot", r); err != nil {
							return err
						}
					}
				}
				return nil
			},
		},
		{
			Name: "record",
			Handler: func(ctx *sstore.ProcCtx) error {
				_, err := ctx.Exec("INSERT INTO alarms SELECT sensor, temp FROM batch")
				return err
			},
		},
	} {
		if err := st.RegisterProcedure(p); err != nil {
			log.Fatal(err)
		}
	}
	if err := st.Deploy(&sstore.Dataflow{
		Name: "alarming",
		Nodes: []sstore.DataflowNode{
			{Proc: "filter", Input: "readings", Batch: 2, Emits: []string{"hot"}},
			{Proc: "record", Input: "hot", Batch: 1},
		},
	}); err != nil {
		log.Fatal(err)
	}
	if err := st.Start(); err != nil {
		log.Fatal(err)
	}
	defer st.Stop()

	// Pause by name: tuples ingested now queue at the border.
	if err := st.PauseDataflow("alarming"); err != nil {
		log.Fatal(err)
	}
	for _, temp := range []float64{72, 95, 71, 99} {
		if err := st.Ingest("readings", sstore.Row{sstore.Int(1), sstore.Float(temp)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := st.ResumeDataflow("alarming"); err != nil { // queued batches dispatch
		log.Fatal(err)
	}
	st.Drain()
	res, err := st.Query("SELECT temp FROM alarms ORDER BY temp")
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Rows {
		fmt.Println(r[0].Float())
	}
	show, err := st.Query("SHOW DATAFLOWS")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(show.Rows[0][0].Str(), show.Rows[0][1].Str())
	// Output:
	// 95
	// 99
	// alarming running
}

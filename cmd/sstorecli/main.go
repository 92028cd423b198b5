// Command sstorecli is an interactive client for sstored.
//
//	sstorecli -addr 127.0.0.1:7477
//
// Input lines are dispatched by shape:
//
//	exec <sql>                ad-hoc DML (atomic across partitions when it spans them)
//	call <proc> [args...]     stored procedure invocation
//	ingest <stream> v1,v2,... one tuple onto a stream
//	flush                     dispatch partial batches
//	stats                     metrics snapshot
//	quit
//
// Any other line is sent as a query: a SELECT, or a system statement —
//
//	SHOW DATAFLOWS                      list deployed dataflow graphs
//	EXPLAIN DATAFLOW <name>             render a graph: nodes, edges, constraints
//	EXPLAIN <statement>                 the plan the engine would run
//	DEPLOY DATAFLOW g (...)             deploy a workflow graph (see sql.DeployDataflow)
//	ALTER DATAFLOW <name> PAUSE|RESUME  pause a dataflow (border ingest queues) or resume it
//	ALTER SYSTEM PARTITIONS <n>         grow the server to n partitions (live rebalance)
//
// Arguments parse as int, then float, then string.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/types"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7477", "server address")
	flag.Parse()
	c, err := client.DialTCP(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sstorecli: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		fmt.Fprintf(os.Stderr, "sstorecli: ping: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("connected to %s\n", *addr)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("sstore> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "quit" || line == "exit":
			return
		case line == "flush":
			if err := c.Flush(); err != nil {
				fmt.Println("error:", err)
			}
		case strings.EqualFold(line, "stats"):
			resp, err := c.Stats()
			printResp(resp, err)
		case strings.HasPrefix(strings.ToLower(line), "call "):
			fields := strings.Fields(line)
			if len(fields) < 2 {
				fmt.Println("usage: call <proc> [args...]")
				break
			}
			resp, err := c.Call(fields[1], parseArgs(fields[2:])...)
			printResp(resp, err)
		case strings.HasPrefix(strings.ToLower(line), "exec "):
			resp, err := c.Exec(strings.TrimSpace(line[len("exec "):]))
			printResp(resp, err)
		case strings.HasPrefix(strings.ToLower(line), "ingest "):
			fields := strings.Fields(line)
			if len(fields) != 3 {
				fmt.Println("usage: ingest <stream> v1,v2,...")
				break
			}
			row := types.Row(parseArgs(strings.Split(fields[2], ",")))
			if err := c.Ingest(fields[1], row); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		default:
			resp, err := c.Query(line)
			printResp(resp, err)
		}
		fmt.Print("sstore> ")
	}
}

func parseArgs(args []string) []types.Value {
	out := make([]types.Value, 0, len(args))
	for _, a := range args {
		a = strings.TrimSpace(a)
		if i, err := strconv.ParseInt(a, 10, 64); err == nil {
			out = append(out, types.NewInt(i))
			continue
		}
		if f, err := strconv.ParseFloat(a, 64); err == nil {
			out = append(out, types.NewFloat(f))
			continue
		}
		if strings.EqualFold(a, "null") {
			out = append(out, types.Null)
			continue
		}
		out = append(out, types.NewString(strings.Trim(a, "'\"")))
	}
	return out
}

func printResp(resp *wire.Response, err error) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if len(resp.Columns) > 0 {
		fmt.Println(strings.Join(resp.Columns, "\t"))
	}
	for _, r := range resp.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	fmt.Printf("(%d rows)\n", len(resp.Rows))
}

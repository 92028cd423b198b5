// Command sstored runs the S-Store server: it assembles an engine,
// optionally installs one of the built-in demo applications (stored
// procedures are compiled code, as in H-Store), recovers durable state,
// and serves the wire protocol over TCP. Once a durability failure stops
// the store (core.Store.Failed), it exits non-zero without a checkpoint, so
// that a supervisor restarts it into recovery.
//
// With -partitions > 1, ad-hoc statements that span partitions — multi-row
// INSERTs across shards, INSERT ... SELECT, broadcast UPDATE / DELETE —
// execute atomically through the store's 2PC coordinator, so remote
// clients never observe (or leave behind) a partially applied write.
//
// Usage:
//
//	sstored -addr 127.0.0.1:7477 -app voter -dir /var/lib/sstore -sync group
//	sstored -app bikeshare
//	sstored -ddl schema.sql            # bare engine with custom schema
//	sstored -ddl schema.sql -memory-budget 67108864   # anti-caching: tables
//	    larger than 64 MiB of resident rows spill cold tuples to disk
//
// With -follow, sstored runs as a read replica of another sstored: it tails
// the primary's WAL over the wire (the primary must be durable), re-dials
// it after a cut or a restart, serves snapshot SELECTs from the replayed
// state, and promotes only on ALTER SYSTEM PROMOTE (sstorecli), then takes
// writes. With -dir it logs what it applies there, restarts from it, and
// once promoted is a durable primary. The follower must be started with
// the same schema flags (-app / -ddl / -partitions / -log-all-tes) as the
// primary:
//
//	sstored -addr 127.0.0.1:7478 -app voter -dir /var/lib/sstore-f -sync group -follow 127.0.0.1:7477
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/apps/bikeshare"
	"repro/internal/apps/voter"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7477", "listen address")
		dir       = flag.String("dir", "", "durability directory (empty = volatile)")
		app       = flag.String("app", "none", "built-in application: voter | bikeshare | none")
		ddlFile   = flag.String("ddl", "", "DDL script to execute at startup")
		syncPol   = flag.String("sync", "never", "command-log fsync policy: never | every | group")
		logAll    = flag.Bool("log-all-tes", false, "log every transaction execution instead of upstream backup")
		hstore    = flag.Bool("hstore", false, "H-Store baseline mode (streaming features disabled)")
		contest   = flag.Int("contestants", 25, "voter: number of contestants")
		stations  = flag.Int("stations", 20, "bikeshare: number of stations")
		parts     = flag.Int("partitions", 1, "number of serial-execution partitions (PARTITION BY relations hash-split across them)")
		memBudget = flag.Int64("memory-budget", 0, "anti-caching: resident-row heap budget in bytes across all base tables (0 = unlimited; cold tuples spill to a page store under -dir)")
		follow    = flag.String("follow", "", "primary address to follow as a read replica (WAL shipping)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) with mutex and block profiling enabled")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// Sampling rates chosen to expose contention without measurable
		// overhead: 1-in-100 mutex contention events, block events >= 1ms.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Millisecond))
		go func() {
			log.Printf("sstored: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("sstored: pprof: %v", err)
			}
		}()
	}

	cfg := core.Config{
		Dir:          *dir,
		HStoreMode:   *hstore,
		Partitions:   *parts,
		MemoryBudget: *memBudget,
	}
	switch *syncPol {
	case "never":
		cfg.Sync = wal.SyncNever
	case "every":
		cfg.Sync = wal.SyncEveryRecord
	case "group":
		cfg.Sync = wal.SyncGroupCommit
	default:
		log.Fatalf("sstored: unknown sync policy %q (want never, every, or group)", *syncPol)
	}
	if *logAll {
		cfg.LogMode = pe.LogAllTEs
	}
	if *dir != "" && cfg.Sync == wal.SyncNever {
		log.Printf("sstored: -sync never buffers the command log in memory; " +
			"followers of this node cannot replicate until records reach disk — " +
			"use -sync group (or every) when serving read replicas")
	}
	st := core.Open(cfg)

	switch *app {
	case "voter":
		var err error
		switch {
		case *hstore:
			if *parts > 1 {
				log.Printf("sstored: the H-Store baseline voter is unpartitioned; all data pins to partition 0")
			}
			err = voter.SetupHStore(st, *contest)
		case *parts > 1:
			// The streaming partitioned variant hash-splits the vote feed
			// by phone and keeps elimination per-shard; the coordinated
			// global-elimination variant (voter.SetupGlobal /
			// voter.CastVoteGlobal) is driven in-process — see DESIGN.md
			// §4.3 and EXPERIMENTS.md E8.
			err = voter.SetupPartitioned(st, *contest)
		default:
			err = voter.Setup(st, *contest)
		}
		if err != nil {
			log.Fatalf("sstored: voter setup: %v", err)
		}
	case "bikeshare":
		if *parts > 1 {
			log.Printf("sstored: the bikeshare app is unpartitioned; all data pins to partition 0")
		}
		if err := bikeshare.Setup(st, *stations, 8, 200); err != nil {
			log.Fatalf("sstored: bikeshare setup: %v", err)
		}
	case "none":
	default:
		log.Fatalf("sstored: unknown app %q", *app)
	}
	if *ddlFile != "" {
		script, err := os.ReadFile(*ddlFile)
		if err != nil {
			log.Fatalf("sstored: %v", err)
		}
		if err := st.ExecScript(string(script)); err != nil {
			log.Fatalf("sstored: ddl: %v", err)
		}
	}
	var srv *server.Server
	var fol *core.Follower
	if *follow != "" {
		src, err := client.DialTCP(*follow)
		if err != nil {
			log.Fatalf("sstored: follow %s: %v", *follow, err)
		}
		fol, err = core.NewFollower(st, src)
		if err != nil {
			log.Fatalf("sstored: follower: %v", err)
		}
		srv = server.NewFollower(fol)
		if err := fol.Run(); err != nil {
			log.Fatalf("sstored: follower: %v", err)
		}
	} else {
		if err := st.Start(); err != nil {
			log.Fatalf("sstored: start: %v", err)
		}
		srv = server.New(st)
	}
	if err := srv.Listen(*addr); err != nil {
		log.Fatalf("sstored: %v", err)
	}
	if *follow != "" {
		fmt.Printf("sstored following %s on %s (app=%s, partitions=%d, durable=%v, read replica)\n",
			*follow, srv.Addr(), *app, st.NumPartitions(), *dir != "")
	} else {
		fmt.Printf("sstored listening on %s (app=%s, partitions=%d, durable=%v)\n",
			srv.Addr(), *app, st.NumPartitions(), *dir != "")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case <-st.Failed(): // fail-stop: no checkpoint of what the logs may not hold
		log.Fatalf("sstored: %v", st.Err())
	}
	fmt.Println("sstored: shutting down")
	srv.Close()
	if fol != nil { // an unpromoted follower's state is its log: no checkpoint
		if err := fol.Stop(); err != nil {
			log.Printf("sstored: shutdown: %v", err)
		}
		if !fol.Promoted() {
			return
		}
	}
	if *dir != "" {
		if err := st.Checkpoint(); err != nil {
			log.Printf("sstored: final checkpoint: %v", err)
		}
	}
	if err := st.Stop(); err != nil {
		log.Printf("sstored: shutdown: %v", err)
	}
}

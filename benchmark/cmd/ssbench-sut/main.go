// Command ssbench-sut is the system under test: sstored's assembly
// (core.Open → app setup → Start → server.New → Listen) with the
// benchmark's procedure bundle, as a child process so the harness can read
// its CPU time and resident set from /proc. It listens on a free port and
// prints the address on its first line of output. SIGUSR1 asks for a
// checkpoint (sstored takes one when it shuts down); the outcome is the next
// line of output.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/benchmark/sut"
	"repro/internal/server"
)

func main() {
	var spec sut.Spec
	flag.StringVar(&spec.Workload, "workload", "", "workload whose schema and procedures to install")
	flag.StringVar(&spec.Dir, "dir", "", "durability directory (durable workloads)")
	flag.Parse()

	st, err := sut.Open(spec)
	if err != nil {
		log.Fatalf("ssbench-sut: %v", err)
	}
	if err := st.Start(); err != nil {
		log.Fatalf("ssbench-sut: start: %v", err)
	}
	srv := server.New(st)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		log.Fatalf("ssbench-sut: %v", err)
	}
	fmt.Printf("listening %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for s := range sig {
		if s != syscall.SIGUSR1 {
			break
		}
		if err := st.Checkpoint(); err != nil {
			fmt.Printf("checkpoint failed: %v\n", err)
		} else {
			fmt.Println("checkpoint ok")
		}
	}
	srv.Close()
	if err := st.Stop(); err != nil {
		log.Printf("ssbench-sut: stop: %v", err)
	}
}

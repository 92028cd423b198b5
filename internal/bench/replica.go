package bench

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// ---------- E12: WAL-shipped read replicas and failover ----------
//
// A durable primary runs the pipelined OLTP write load while N followers
// tail its WAL segments and serve snapshot reads. The read workload models
// per-node client populations (each replica endpoint has its own paced
// dashboard sessions, as read traffic routed to it would in a deployment):
// aggregate served reads should scale with the follower count, while the
// primary's write throughput stays essentially untouched — shipping is
// out-of-band file tailing, never on the commit path.
//
// After the 2-follower measurement the primary is stopped mid-load and the
// most-caught-up follower promoted; the failover numbers record the
// recovery time and verify that every acknowledged write survived.

// E12Row is one replica-topology measurement.
type E12Row struct {
	Mode       string
	Replicas   int
	ReadsSec   float64
	ReadP50    time.Duration
	ReadP99    time.Duration
	WritesSec  float64
	LagRecords int64 // replication lag at the end of the measured window
}

// E12Result is the full experiment: the scaling table plus the failover
// episode run on the final topology.
type E12Result struct {
	Rows []E12Row
	// FailoverRTO is Stop-to-serving: dead primary detected -> follower
	// drained, in-doubt 2PC resolved, partition workers started.
	FailoverRTO  time.Duration
	AckedBumps   int64 // bumps acknowledged before the crash
	RecoveredSum int64 // SUM(v) served by the promoted store
	ZeroLoss     bool  // RecoveredSum >= AckedBumps
}

const (
	// Paced readers: each wakes every e12ReadPace and issues
	// e12ReadBatch point SELECTs, so one node's offered load is
	// readersPerNode * e12ReadBatch / e12ReadPace.
	e12ReadPace  = 4 * time.Millisecond
	e12ReadBatch = 8
	// The writers are paced too — the scaling question is how much read
	// traffic the topology serves under a FIXED write load, so the write
	// side offers nWriters * e12WriteBatch / e12WritePace bumps per second
	// in every mode (pipelined within each burst, as a client would).
	e12WritePace  = 2 * time.Millisecond
	e12WriteBatch = 4
)

// e12Store assembles the kv fixture: durable with group commit when dir is
// set, volatile (a follower replica) when dir == "".
func e12Store(dir string, parts int) (*core.Store, error) {
	cfg := core.Config{Partitions: parts}
	if dir != "" {
		cfg.Dir = dir
		cfg.Sync = wal.SyncGroupCommit
	}
	st := core.Open(cfg)
	if err := st.ExecScript(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;`); err != nil {
		return nil, err
	}
	procs := []*pe.Procedure{
		{
			Name:           "put",
			WriteSet:       []string{"kv"},
			PartitionParam: 1,
			Handler: func(ctx *pe.ProcCtx) error {
				_, err := ctx.Exec("INSERT INTO kv VALUES (?, ?)", ctx.Params[0], ctx.Params[1])
				return err
			},
		},
		{
			Name:           "bump",
			WriteSet:       []string{"kv"},
			PartitionParam: 1,
			Handler: func(ctx *pe.ProcCtx) error {
				_, err := ctx.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", ctx.Params[0])
				return err
			},
		},
	}
	for _, p := range procs {
		if err := st.RegisterProcedure(p); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// E12 measures read scaling at 0, 1, and 2 followers, then the failover
// episode. readersPerNode paced readers attach to every serving node
// (primary when there are no replicas, otherwise the followers).
func E12(seed int64, keys, readersPerNode int, dur time.Duration) (*E12Result, error) {
	if keys < 1 {
		keys = 1
	}
	res := &E12Result{}
	for _, replicas := range []int{0, 1, 2} {
		mode := "primary-only"
		if replicas > 0 {
			mode = fmt.Sprintf("%d-follower", replicas)
		}
		row, fail, err := runE12Mode(mode, seed, keys, readersPerNode, replicas, dur, replicas == 2)
		if err != nil {
			return nil, fmt.Errorf("E12 %s: %w", mode, err)
		}
		res.Rows = append(res.Rows, row)
		if fail != nil {
			res.FailoverRTO = fail.rto
			res.AckedBumps = fail.acked
			res.RecoveredSum = fail.recovered
			res.ZeroLoss = fail.recovered >= fail.acked
		}
	}
	return res, nil
}

type e12Failover struct {
	rto       time.Duration
	acked     int64
	recovered int64
}

func runE12Mode(mode string, seed int64, keys, readersPerNode, replicas int, dur time.Duration, failover bool) (E12Row, *e12Failover, error) {
	const parts = 2
	dir, err := os.MkdirTemp("", "sstore-e12")
	if err != nil {
		return E12Row{}, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := e12Store(dir, parts)
	if err != nil {
		return E12Row{}, nil, err
	}
	if err := st.Start(); err != nil {
		return E12Row{}, nil, err
	}
	primaryUp := true
	defer func() {
		if primaryUp {
			st.Stop()
		}
	}()
	for k := 0; k < keys; k++ {
		if _, err := st.Call("put", types.NewInt(int64(k)), types.NewInt(0)); err != nil {
			return E12Row{}, nil, err
		}
	}

	// Attach the followers and let them reach the seeded horizon before
	// the measured window opens.
	followers := make([]*core.Follower, replicas)
	for i := range followers {
		fst, err := e12Store("", parts)
		if err != nil {
			return E12Row{}, nil, err
		}
		f, err := core.NewFollower(fst, core.StoreSource{St: st}, core.FollowerOpts{})
		if err != nil {
			return E12Row{}, nil, err
		}
		if err := f.Run(); err != nil {
			return E12Row{}, nil, err
		}
		followers[i] = f
	}
	for _, f := range followers {
		for deadline := time.Now().Add(30 * time.Second); f.Lag() > 0; {
			if time.Now().After(deadline) {
				return E12Row{}, nil, fmt.Errorf("follower never caught up (lag %d)", f.Lag())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One paced reader population per serving node.
	type node struct {
		query func(string, ...types.Value) (*pe.Result, error)
	}
	var nodes []node
	if replicas == 0 {
		nodes = []node{{query: st.Query}}
	} else {
		for _, f := range followers {
			nodes = append(nodes, node{query: f.Query})
		}
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	nReaders := len(nodes) * readersPerNode
	latencies := make([][]time.Duration, nReaders)
	readErrs := make([]error, nReaders)
	for r := 0; r < nReaders; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			q := nodes[r%len(nodes)].query
			rng := rand.New(rand.NewSource(seed + int64(r) + 1))
			lats := make([]time.Duration, 0, 1<<14)
			next := time.Now()
			for {
				select {
				case <-stop:
					latencies[r] = lats
					return
				default:
				}
				if wait := time.Until(next); wait > 0 {
					time.Sleep(wait)
				}
				for i := 0; i < e12ReadBatch; i++ {
					k := types.NewInt(rng.Int63n(int64(keys)))
					s := time.Now()
					if _, err := q("SELECT v FROM kv WHERE k = ?", k); err != nil {
						readErrs[r] = err
						latencies[r] = lats
						return
					}
					lats = append(lats, time.Since(s))
				}
				if next = next.Add(e12ReadPace); next.Before(time.Now()) {
					next = time.Now()
				}
			}
		}(r)
	}

	// The paced pipelined writers: a burst of async bumps per tick, reaped
	// before the next tick, for the same offered write load in every mode.
	const nWriters = 2
	writeCounts := make([]int, nWriters)
	writeErrs := make([]error, nWriters)
	var wwg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < nWriters; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			inflight := make([]<-chan pe.CallResult, 0, e12WriteBatch)
			next := time.Now()
			for time.Since(t0) < dur {
				if wait := time.Until(next); wait > 0 {
					time.Sleep(wait)
				}
				inflight = inflight[:0]
				for i := 0; i < e12WriteBatch; i++ {
					inflight = append(inflight, st.CallAsync("bump", types.NewInt(rng.Int63n(int64(keys)))))
				}
				for _, fut := range inflight {
					if cr := <-fut; cr.Err != nil {
						writeErrs[w] = cr.Err
						return
					}
					writeCounts[w]++
				}
				if next = next.Add(e12WritePace); next.Before(time.Now()) {
					next = time.Now()
				}
			}
		}(w)
	}
	wwg.Wait()
	elapsed := time.Since(t0)
	// Snapshot replication lag while the tail is still draining, before
	// the readers stop offering load.
	var lag int64
	for _, f := range followers {
		if l := f.Lag(); l > lag {
			lag = l
		}
	}
	close(stop)
	rwg.Wait()
	writes := 0
	for w := 0; w < nWriters; w++ {
		if writeErrs[w] != nil {
			return E12Row{}, nil, writeErrs[w]
		}
		writes += writeCounts[w]
	}
	for _, err := range readErrs {
		if err != nil {
			return E12Row{}, nil, err
		}
	}
	var totalReads int64
	for _, lats := range latencies {
		totalReads += int64(len(lats))
	}
	row := E12Row{
		Mode:       mode,
		Replicas:   replicas,
		ReadsSec:   float64(totalReads) / elapsed.Seconds(),
		WritesSec:  float64(writes) / elapsed.Seconds(),
		LagRecords: lag,
	}
	q := latencyQuantiles(latencies)
	row.ReadP50, row.ReadP99 = q(0.50), q(0.99)

	var fail *e12Failover
	if failover {
		primaryUp = false // the failover episode stops the primary
		f, err := runE12Failover(st, followers, keys, seed, int64(writes))
		if err != nil {
			return E12Row{}, nil, err
		}
		fail = f
	}
	// Promotion is the one clean way to stop an apply loop; stopping the
	// promoted store reaps its goroutines. The failover episode already
	// promoted (and measured) the most-caught-up follower.
	for _, f := range followers {
		if pst, err := f.Promote(); err == nil {
			pst.Stop()
		}
	}
	return row, fail, nil
}

// runE12Failover kills the primary under write load and promotes the
// most-caught-up follower, timing detection-to-serving and auditing that
// no acknowledged write was lost. ackedBefore counts the measurement
// window's acknowledged bumps, all of which must also survive.
func runE12Failover(st *core.Store, followers []*core.Follower, keys int, seed, ackedBefore int64) (*e12Failover, error) {
	var acked atomic.Int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(seed + 31337))
		for {
			if _, err := st.Call("bump", types.NewInt(rng.Int63n(int64(keys)))); err != nil {
				return // the crash: stop on the first failed ack
			}
			acked.Add(1)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := st.Stop(); err != nil {
		return nil, err
	}
	<-writerDone

	t0 := time.Now()
	f := core.MostCaughtUp(followers)
	promoted, err := f.Promote()
	if err != nil {
		return nil, err
	}
	rto := time.Since(t0)
	res, err := promoted.Query("SELECT SUM(v) FROM kv")
	if err != nil {
		return nil, err
	}
	sum := res.Rows[0][0].Int()
	// One write on the promoted primary proves it serves the full role.
	if _, err := promoted.Call("put", types.NewInt(int64(keys)), types.NewInt(1)); err != nil {
		return nil, err
	}
	promoted.Stop()
	return &e12Failover{rto: rto, acked: ackedBefore + acked.Load(), recovered: sum}, nil
}

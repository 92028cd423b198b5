// Package sut assembles the system under test for each ssbench workload:
// the same core.Open → app setup → Start sequence as cmd/sstored, plus the
// benchmark's own stored procedures (procedures are compiled code, so the
// bundle has to live in the process that serves them). The SUT binary, the
// in-process traced run and the smoke test all build their store here, so
// they cannot drift apart.
package sut

import (
	"fmt"
	"strings"

	"repro/internal/apps/voter"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	VoterStream = "voter-stream"
	KVMixed     = "kv-mixed"
	KVCold      = "kv-cold"
	MPPair      = "mp-pair"
)

// Workloads lists every workload name.
var Workloads = []string{VoterStream, KVMixed, KVCold, MPPair}

// Committed sizes. Scale divides them (the smoke test runs at 1/50).
const (
	// VoterContestants is the size of the contestant pool every segment
	// starts from (see harness/voter.go). The workflow's EE
	// trigger scans the pool twice per vote; at 250 the scanned tables stay
	// inside a core's private cache, where 2000 spills into the cache the
	// host shares with its neighbours: interleaved runs spread 18 % at
	// 2000, 16 % at 500 and 6 % at 250 (quartile distance over median).
	VoterContestants = 250
	// KVRows × KVRowBytes is the kv table: 40 MB of row payload.
	KVRows = 100_000
	// KVGroups is the number of distinct grp values; a grp aggregate
	// touches KVRows/KVGroups rows.
	KVGroups = 1000
	// KVRowBytes is storage's accounting of one kv row (24 B header +
	// 40 B per column + the VARCHAR length), the unit MemoryBudget counts.
	KVRowBytes = 400
	// KVPad is the VARCHAR length that makes a row KVRowBytes.
	KVPad = KVRowBytes - 24 - 4*40
	// KVColdDivisor: kv-cold's budget is the loaded row bytes over this
	// (E13's 4x over-subscription).
	KVColdDivisor = 4
)

// Spec selects a workload's store.
type Spec struct {
	Workload string
	// Dir is the durability directory; "" for the volatile workload
	// (mp-pair) and for in-process rungs that must not touch disk.
	Dir string
	// Scale divides the committed table sizes; 0 or 1 is full size.
	Scale int
}

func (s Spec) div(n int) int {
	if s.Scale > 1 {
		n /= s.Scale
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Contestants is the voter pool size at this scale; never so small that a
// segment's eliminations could leave the top-3 query fewer than three rows.
func (s Spec) Contestants() int { return max(s.div(VoterContestants), 10) }

// Rows is the kv table size at this scale, a multiple of Groups.
func (s Spec) Rows() int {
	g := s.Groups()
	return (s.div(KVRows) + g - 1) / g * g
}

// Groups is the number of grp values at this scale.
func (s Spec) Groups() int { return s.div(KVGroups) }

// Partitions is the workload's partition count.
func (s Spec) Partitions() int {
	if s.Workload == VoterStream {
		return 1
	}
	return 2
}

// MemoryBudget is Config.MemoryBudget for the workload (0 = unlimited).
func (s Spec) MemoryBudget() int64 {
	if s.Workload != KVCold {
		return 0
	}
	return int64(s.Rows()) * KVRowBytes / KVColdDivisor
}

// Durable reports whether the workload runs on a durability directory.
func (s Spec) Durable() bool { return s.Workload != MPPair }

// Config is the core.Config the workload runs under. The flush policy is
// part of the workload: durable ones use group commit at the default 2 ms
// tick with border-only (upstream backup) logging.
func (s Spec) Config() core.Config {
	cfg := core.Config{
		Partitions:   s.Partitions(),
		MemoryBudget: s.MemoryBudget(),
	}
	if s.Durable() {
		cfg.Dir = s.Dir
		cfg.Sync = wal.SyncGroupCommit
	}
	return cfg
}

// Open builds the workload's store: schema, procedures and dataflows
// installed, not yet started.
func Open(s Spec) (*core.Store, error) {
	st := core.Open(s.Config())
	var err error
	switch s.Workload {
	case VoterStream:
		err = setupVoter(st, s.Contestants())
	case KVMixed, KVCold:
		err = setupKV(st, s.Groups())
	case MPPair:
		err = st.ExecScript(PairsDDL)
	default:
		err = fmt.Errorf("sut: unknown workload %q (want one of %s)", s.Workload, strings.Join(Workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// ---------- voter-stream ----------

// setupVoter installs the paper's workflow unchanged and two procedures of
// the benchmark's own. voter_reset, called between segments and never
// timed, returns the contest to its starting state with the contestants in
// its parameters: without it `votes` grows by a row per accepted vote and
// the pool shrinks by one per hundred, so every segment would cost
// something else than the one before. voter_sync is a logged no-op whose
// group-commit ack proves every earlier border batch is on disk before the
// harness kills the process. Both go through the command log like any call,
// so recovery replays them in order with the feed.
func setupVoter(st *core.Store, contestants int) error {
	if err := voter.Setup(st, contestants); err != nil {
		return err
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:     "voter_reset",
		WriteSet: []string{"contestants", "votes", "vote_counts", "vote_totals", "trending", "eliminations"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, stmt := range []string{
				"DELETE FROM votes",
				"DELETE FROM vote_counts",
				"DELETE FROM trending",
				"DELETE FROM contestants",
				"DELETE FROM eliminations",
				"UPDATE vote_totals SET n = 0 WHERE id = 0",
			} {
				if _, err := ctx.Exec(stmt); err != nil {
					return err
				}
			}
			for _, id := range ctx.Params {
				name := types.NewString(fmt.Sprintf("cand-%d", id.Int()))
				if _, err := ctx.Exec("INSERT INTO contestants VALUES (?, ?)", id, name); err != nil {
					return err
				}
				if _, err := ctx.Exec("INSERT INTO vote_counts (contestant, n) VALUES (?, 0)", id); err != nil {
					return err
				}
				if _, err := ctx.Exec("INSERT INTO trending (contestant, n) VALUES (?, 0)", id); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		return err
	}
	return st.RegisterProcedure(&pe.Procedure{
		Name:    "voter_sync",
		Handler: func(*pe.ProcCtx) error { return nil },
	})
}

// ---------- kv-mixed / kv-cold ----------

// KVDDL is the kv schema. The primary-key index is ordered, so it serves
// the BETWEEN range as well as the point lookups.
const KVDDL = `
	CREATE TABLE kv (k BIGINT PRIMARY KEY, grp INT, n BIGINT, v VARCHAR) PARTITION BY k;
	CREATE INDEX kv_by_grp ON kv (grp);
`

// KV statements, shared by the wire workload and the ladder.
const (
	KVPoint  = "SELECT k, grp, n, v FROM kv WHERE k = ?"
	KVRange  = "SELECT k, n, v FROM kv WHERE k BETWEEN ? AND ? ORDER BY k"
	KVAgg    = "SELECT COUNT(*), SUM(n) FROM kv WHERE grp = ?"
	KVInsert = "INSERT INTO kv VALUES (?, ?, ?, ?)"
	KVUpdate = "UPDATE kv SET v = ?, n = n + 1 WHERE k = ?"
)

// KVLoadValue is the value every row is loaded with.
func KVLoadValue() types.Value { return types.NewString(strings.Repeat("x", KVPad)) }

// setupKV installs the kv schema and its two procedures. kv_load inserts
// the keys in Params[1:] (all owned by the partition of Params[0], which
// routes the call) so the preload goes through the command log in a few
// hundred calls instead of one group-commit wait per row.
func setupKV(st *core.Store, groups int) error {
	if err := st.ExecScript(KVDDL); err != nil {
		return err
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:           "kv_load",
		WriteSet:       []string{"kv"},
		PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			v := KVLoadValue()
			for _, k := range ctx.Params[1:] {
				grp := types.NewInt(k.Int() % int64(groups))
				if _, err := ctx.Exec(KVInsert, k, grp, types.NewInt(0), v); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		return err
	}
	return st.RegisterProcedure(&pe.Procedure{
		Name:           "kv_put",
		WriteSet:       []string{"kv"},
		PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			res, err := ctx.Exec(KVUpdate, ctx.Params[1], ctx.Params[0])
			if err != nil {
				return err
			}
			if res.RowsAffected != 1 {
				return fmt.Errorf("kv_put: key %d matched %d rows", ctx.Params[0].Int(), res.RowsAffected)
			}
			return nil
		},
	})
}

// ---------- mp-pair ----------

// PairsDDL is the mp-pair schema.
const PairsDDL = `CREATE TABLE pairs (id BIGINT PRIMARY KEY, peer BIGINT, n BIGINT) PARTITION BY id;`

// Pair statements.
const (
	PairInsert = "INSERT INTO pairs VALUES (?, ?, 1), (?, ?, 1)"
	PairCount  = "SELECT COUNT(*) FROM pairs"
	PairClear  = "DELETE FROM pairs"
)

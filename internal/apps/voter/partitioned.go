package voter

import (
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/workload"
)

// This file is the scale-out variant of the Voter workload: the same
// validate → count pipeline, but over PARTITION BY relations so a
// multi-partition store hash-splits the vote feed by phone and runs the
// workflow independently on every partition (the H-Store execution model
// the paper builds on). Global elimination is inherently cross-partition —
// it reads the worldwide minimum — so this variant drops it; the
// leaderboard becomes a distributed aggregation over per-partition partial
// counts instead. See DESIGN.md §4 for the partitioning rules.

// partitionedDDL declares the hash-partitioned Voter schema. votes and the
// two streams are split by phone; contestants is replicated reference
// data; vote_counts and trending hold partition-local partials — they are
// declared PARTITION BY so ad-hoc queries aggregate every partition's.
const partitionedDDL = `
	CREATE TABLE contestants (id INT PRIMARY KEY, name VARCHAR NOT NULL);
	CREATE TABLE votes (phone BIGINT PRIMARY KEY, contestant INT NOT NULL, ts BIGINT) PARTITION BY phone;
	CREATE INDEX votes_by_contestant ON votes (contestant);
	CREATE TABLE vote_counts (contestant INT PRIMARY KEY, n BIGINT DEFAULT 0) PARTITION BY contestant PARTIAL;
	CREATE TABLE trending (contestant INT PRIMARY KEY, n BIGINT) PARTITION BY contestant PARTIAL;
	CREATE STREAM votes_in (phone BIGINT, contestant INT, ts BIGINT) PARTITION BY phone;
	CREATE STREAM validated (phone BIGINT, contestant INT, ts BIGINT) PARTITION BY phone;
	CREATE WINDOW w_trend ON validated ROWS 100 SLIDE 1;
`

// SetupPartitioned installs the partitioned Voter variant: schema,
// replicated seed data on every partition, the SP1→SP2 workflow, and the
// partition-local trending window.
func SetupPartitioned(st *core.Store, contestants int) error {
	if err := st.ExecScript(partitionedDDL); err != nil {
		return err
	}
	// Seed every partition replica directly: contestants is reference data,
	// and each partition needs its own zeroed partial-count rows.
	for i := 0; i < st.NumPartitions(); i++ {
		if err := seedEngine(st.EEAt(i), contestants, false); err != nil {
			return err
		}
	}
	if err := st.RegisterProcedure(sp1Partitioned()); err != nil {
		return err
	}
	if err := st.RegisterProcedure(sp2Partitioned()); err != nil {
		return err
	}
	// One graph deployed to every partition; each hash shard runs it
	// independently over its share of the vote feed.
	return st.Deploy(&core.Dataflow{
		Name: "voter_partitioned",
		Nodes: []core.DataflowNode{
			{Proc: "sp1p_validate", Input: "votes_in", Batch: 1, Emits: []string{"validated"}},
			{Proc: "sp2p_count", Input: "validated", Batch: 1},
		},
		Triggers: []core.DataflowTrigger{{
			Name:     "trend_maintain",
			Relation: "w_trend",
			Bodies: []string{
				"UPDATE trending SET n = n + 1 WHERE contestant IN (SELECT contestant FROM inserted)",
				"UPDATE trending SET n = n - 1 WHERE contestant IN (SELECT contestant FROM expired)",
			},
		}},
	})
}

// sp1Partitioned validates a vote against partition-local state: the phone
// shard is co-located (votes is partitioned by phone, like the stream), so
// the one-vote-per-phone check never leaves the partition.
func sp1Partitioned() *pe.Procedure {
	return &pe.Procedure{
		Name:     "sp1p_validate",
		ReadSet:  []string{"contestants"},
		WriteSet: []string{"votes"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, v := range ctx.Batch {
				phone, cand := v[0], v[1]
				c, err := ctx.QueryRow("SELECT id FROM contestants WHERE id = ?", cand)
				if err != nil {
					return err
				}
				if c == nil {
					continue // invalid candidate
				}
				p, err := ctx.QueryRow("SELECT phone FROM votes WHERE phone = ?", phone)
				if err != nil {
					return err
				}
				if p != nil {
					continue // this phone already voted (shard-local check)
				}
				if _, err := ctx.Exec("INSERT INTO votes VALUES (?, ?, ?)", phone, cand, v[2]); err != nil {
					return err
				}
				if err := ctx.Emit("validated", v); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// sp2Partitioned maintains the partition-local partial counts and probes
// the candidate's current support (an index scan over the local votes
// shard — the per-operation working set that shrinks as partitions are
// added, which is where hash-partitioning buys its throughput).
func sp2Partitioned() *pe.Procedure {
	return &pe.Procedure{
		Name:     "sp2p_count",
		ReadSet:  []string{"votes"},
		WriteSet: []string{"vote_counts", "trending"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, v := range ctx.Batch {
				// Upsert the partition-local partial: partitions added by a
				// rebalance start with empty PARTIAL tables.
				res, err := ctx.Exec("UPDATE vote_counts SET n = n + 1 WHERE contestant = ?", v[1])
				if err != nil {
					return err
				}
				if res.RowsAffected == 0 {
					if _, err := ctx.Exec("INSERT INTO vote_counts (contestant, n) VALUES (?, 1)", v[1]); err != nil {
						return err
					}
				}
				if _, err := ctx.Query("SELECT COUNT(*) FROM votes WHERE contestant = ?", v[1]); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// RunPartitioned pushes the feed through the router in chunks; the router
// hash-splits each chunk across partitions by phone.
func RunPartitioned(st *core.Store, votes []workload.Vote, chunk int) error {
	return RunSStoreChunked(st, votes, chunk)
}

// ExpectedValidVotes computes, without the engine, how many votes of the
// feed survive validation when elimination is disabled: the first vote of
// each phone for an existing candidate. It reuses the sequential oracle
// (oracle.go, the single reference for validation semantics) with the
// elimination threshold pushed past the end of the feed.
func ExpectedValidVotes(votes []workload.Vote, contestants int) int64 {
	return int64(RunOracle(votes, contestants, len(votes)+1).Accepted)
}

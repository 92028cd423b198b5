package voter

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ee"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/workload"
)

// This file is the variant §4.3 used to rule out: partitioned Voter WITH
// global elimination. Elimination reads the worldwide minimum — inherently
// cross-partition — so before the 2PC coordinator the partitioned app had
// to drop it (partitioned.go). Here each vote is one coordinated
// multi-partition transaction: validate and record on the phone's owning
// partition, read the global total, and when the elimination threshold
// hits, compute the worldwide-minimum candidate from the merged partial
// counts and delete it everywhere — votes, count partials, and the
// replicated contestant row — atomically with the vote that triggered it.
// Driven in arrival order it reproduces the sequential oracle (oracle.go)
// vote for vote and elimination for elimination, which no combination of
// single-partition transactions can guarantee.

// globalDDL is the partitioned OLTP schema plus per-partition partial
// rows for the global accepted-vote total (id is a dummy key; each
// partition holds one partial row; a SUM over the table adds them).
const globalDDL = oltpDDL + `
	CREATE TABLE totals_g (id INT PRIMARY KEY, n BIGINT DEFAULT 0) PARTITION BY id PARTIAL;
`

// SetupGlobal installs the globally-eliminating Voter: schema and per-
// partition seed rows (contestant reference data, zeroed count and total
// partials).
func SetupGlobal(st *core.Store, contestants int) error {
	if err := st.ExecScript(globalDDL); err != nil {
		return err
	}
	for i := 0; i < st.NumPartitions(); i++ {
		exec := st.EEAt(i)
		ctx := &ee.ExecCtx{Undo: storage.NewUndoLog()}
		for c := 1; c <= contestants; c++ {
			id := types.NewInt(int64(c))
			if _, err := exec.ExecSQL(ctx, "INSERT INTO contestants VALUES (?, ?)",
				id, types.NewString(contestantName(c))); err != nil {
				return err
			}
			if _, err := exec.ExecSQL(ctx, "INSERT INTO vote_counts (contestant, n) VALUES (?, 0)", id); err != nil {
				return err
			}
		}
		if _, err := exec.ExecSQL(ctx, "INSERT INTO totals_g VALUES (0, 0)"); err != nil {
			return err
		}
	}
	return nil
}

// CastVoteGlobal processes one vote with the full §3.1 semantics as a
// single atomic cross-partition transaction. It returns whether the vote
// was accepted and, when this vote crossed an elimination threshold, the
// id of the eliminated candidate (0 otherwise).
func CastVoteGlobal(st *core.Store, phone, contestant, ts int64, eliminateEvery int) (accepted bool, eliminated int64, err error) {
	err = st.MultiPartitionTxn(func(tx *core.MPTxn) error {
		owner := tx.PartitionFor(types.NewInt(phone))
		// Voting closes once a single contestant remains (contestants is
		// replicated, so the owning partition's replica has the count).
		alive, err := tx.QueryRow(owner, "SELECT COUNT(*) FROM contestants")
		if err != nil {
			return err
		}
		if alive[0].Int() <= 1 {
			return nil // winner declared: rejected
		}
		c, err := tx.QueryRow(owner, "SELECT id FROM contestants WHERE id = ?", types.NewInt(contestant))
		if err != nil {
			return err
		}
		if c == nil {
			return nil // eliminated or unknown candidate: rejected
		}
		// The phone's live vote, if any, is co-located (votes PARTITION BY
		// phone) — a shard-local uniqueness check with global meaning.
		p, err := tx.QueryRow(owner, "SELECT phone FROM votes WHERE phone = ?", types.NewInt(phone))
		if err != nil {
			return err
		}
		if p != nil {
			return nil // phone already voted: rejected
		}
		if _, err := tx.Exec(owner, "INSERT INTO votes VALUES (?, ?, ?)",
			types.NewInt(phone), types.NewInt(contestant), types.NewInt(ts)); err != nil {
			return err
		}
		// Upserts: PARTIAL tables on partitions added by a rebalance start
		// empty, so the first count there creates the partial row.
		res, err := tx.Exec(owner, "UPDATE vote_counts SET n = n + 1 WHERE contestant = ?",
			types.NewInt(contestant))
		if err != nil {
			return err
		}
		if res.RowsAffected == 0 {
			if _, err := tx.Exec(owner, "INSERT INTO vote_counts (contestant, n) VALUES (?, 1)",
				types.NewInt(contestant)); err != nil {
				return err
			}
		}
		res, err = tx.Exec(owner, "UPDATE totals_g SET n = n + 1 WHERE id = 0")
		if err != nil {
			return err
		}
		if res.RowsAffected == 0 {
			if _, err := tx.Exec(owner, "INSERT INTO totals_g VALUES (0, 1)"); err != nil {
				return err
			}
		}
		accepted = true

		// Global accepted-vote total: sum of the per-partition partials,
		// read inside the transaction (every partition is parked, so the
		// sum is exact, including this vote).
		totalRes, err := tx.QueryAll("SELECT n FROM totals_g WHERE id = 0")
		if err != nil {
			return err
		}
		var total int64
		for _, r := range totalRes {
			for _, row := range r.Rows {
				total += row[0].Int()
			}
		}
		if eliminateEvery <= 0 || total%int64(eliminateEvery) != 0 {
			return nil
		}

		// Elimination: merge the per-partition count partials and remove
		// the worldwide minimum (ties break toward the lower id, matching
		// the oracle) on every partition.
		countRes, err := tx.QueryAll("SELECT contestant, n FROM vote_counts")
		if err != nil {
			return err
		}
		counts := make(map[int64]int64)
		for _, r := range countRes {
			for _, row := range r.Rows {
				counts[row[0].Int()] += row[1].Int()
			}
		}
		loser := int64(0)
		for id, n := range counts {
			if loser == 0 || n < counts[loser] || (n == counts[loser] && id < loser) {
				loser = id
			}
		}
		if loser == 0 {
			return fmt.Errorf("voter: no candidate to eliminate")
		}
		for part := 0; part < tx.NumPartitions(); part++ {
			// Deleting the loser's votes returns them to their casters
			// (those phones may vote again); the count partial disappears
			// and the replicated contestant row is removed everywhere.
			if _, err := tx.Exec(part, "DELETE FROM votes WHERE contestant = ?", types.NewInt(loser)); err != nil {
				return err
			}
			if _, err := tx.Exec(part, "DELETE FROM vote_counts WHERE contestant = ?", types.NewInt(loser)); err != nil {
				return err
			}
			if _, err := tx.Exec(part, "DELETE FROM contestants WHERE id = ?", types.NewInt(loser)); err != nil {
				return err
			}
		}
		eliminated = loser
		return nil
	})
	if err != nil {
		return false, 0, err
	}
	return accepted, eliminated, nil
}

// RunGlobal drives a vote feed through CastVoteGlobal in arrival order,
// collecting the elimination sequence — the shape the oracle comparison
// test and the E8 experiment share.
func RunGlobal(st *core.Store, votes []workload.Vote, eliminateEvery int) (accepted int64, eliminations []int64, elimTotals []int64, err error) {
	for _, v := range votes {
		ok, elim, err := CastVoteGlobal(st, v.Phone, v.Contestant, v.TS, eliminateEvery)
		if err != nil {
			return accepted, eliminations, elimTotals, err
		}
		if ok {
			accepted++
		}
		if elim != 0 {
			eliminations = append(eliminations, elim)
			elimTotals = append(elimTotals, accepted)
		}
	}
	return accepted, eliminations, elimTotals, nil
}

// GlobalAlive returns the live candidate ids (ascending) from the
// replicated contestants table.
func GlobalAlive(st *core.Store) ([]int64, error) {
	res, err := st.Query("SELECT id FROM contestants ORDER BY id")
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].Int())
	}
	return out, nil
}

// GlobalCounts returns the merged per-candidate live vote counts.
func GlobalCounts(st *core.Store) (map[int64]int64, error) {
	res, err := st.Query("SELECT contestant, SUM(n) FROM vote_counts GROUP BY contestant")
	if err != nil {
		return nil, err
	}
	out := make(map[int64]int64, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].Int()] = r[1].Int()
	}
	return out, nil
}

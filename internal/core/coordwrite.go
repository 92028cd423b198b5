package core

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/pe"
	"repro/internal/sql"
	"repro/internal/types"
)

// This file is the router's use of the 2PC coordinator (txncoord.go): the
// ad-hoc write shapes that touch several partitions — broadcast UPDATE /
// DELETE, replicated-table INSERTs, multi-row INSERTs spanning shards, and
// INSERT ... SELECT in every routable direction — execute as coordinated
// transactions, so a failing leg aborts every leg instead of leaving the
// store partially applied (the pre-coordinator behavior this replaces).

// coordExecAll runs one statement on every partition as a single
// coordinated transaction. With sum set, RowsAffected totals the legs
// (hash-split data); without it, partition 0's count stands for the
// logical result (replicated data).
func (s *Store) coordExecAll(sqlText string, params []types.Value, sum bool) (*pe.Result, error) {
	var legs []legFrag
	err := s.runMP(pe.AdHocProc, func(tx *MPTxn) error {
		var err error
		legs, err = tx.sendEach(func(part int) (legFrag, error) { return tx.sendExec(part, sqlText, params...) })
		return err
	})
	if err != nil {
		return nil, err
	}
	return legsResult(legs, sum)
}

// coordInsertBuckets inserts per-partition row batches as one coordinated
// transaction: the legs commit atomically or not at all.
func (s *Store) coordInsertBuckets(table string, buckets map[int][]types.Row) (*pe.Result, error) {
	var legs []legFrag
	err := s.runMP(pe.AdHocProc, func(tx *MPTxn) error {
		legs = legs[:0]
		for part := 0; part < tx.NumPartitions(); part++ {
			if rows := buckets[part]; len(rows) > 0 {
				lf, err := tx.sendInsertRows(part, table, rows)
				if err != nil {
					return err
				}
				legs = append(legs, lf)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return legsResult(legs, true)
}

// legsResult is a committed transaction's result from the write fragments
// its handler queued and never waited for: each was answered before its
// leg's vote, so nothing here waits. With sum set, RowsAffected totals the
// legs; without it, the first leg's result stands for all (replicated
// data: every leg applied the same rows).
func legsResult(legs []legFrag, sum bool) (*pe.Result, error) {
	results, err := waitAll(legs)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return &pe.Result{}, nil
	}
	first := results[0]
	if sum {
		for _, res := range results[1:] {
			first.RowsAffected += res.RowsAffected
		}
	}
	return first, nil
}

// execInsertSelect routes INSERT ... SELECT. A source that reads a
// partitioned relation, and a pinned source feeding a replicated target,
// are read once over a cut and their rows inserted through the
// coordinator, with the read and the writes inside one transaction. Every
// other shape runs as written: on partition 0 (pinned target, local
// source) or broadcast to every replica (replicated target and source).
func (s *Store) execInsertSelect(ins *sql.Insert, rel *catalog.RelDef, sqlText string, params []types.Value) (*pe.Result, error) {
	sch := s.schema.Load()
	if !rel.Partitioned() && localSource(sch, ins.Query, false) {
		if rel.Kind != catalog.KindTable {
			// Pinned stream target, partition-0 source: everything local.
			return s.partList()[0].pe.Exec(sqlText, params...)
		}
		// Replicated target: when the source is replicated too, every leg
		// computes identical rows and the statement broadcasts untouched
		// (coordinated, so replicas cannot diverge on a failing leg). A
		// pinned source lives on partition 0 only — fall through to
		// materialization.
		if localSource(sch, ins.Query, true) {
			return s.coordExecAll(sqlText, params, false)
		}
	}
	// The source is planned as the INSERT's text would plan it, but not
	// cached: the plan cache holds a text's own parse.
	source, err := s.partList()[0].ee.PrepareTree(ins.Query, sqlText, nil)
	if err != nil {
		return nil, err
	}
	colMap, err := insertColMap(ins, rel)
	if err != nil {
		return nil, err
	}
	// The writes are queued and never waited for inside the handler: each
	// leg's inserts ride its vote, and the counts are read after commit.
	var legs []legFrag
	sum := true
	err = s.runMP(pe.AdHocProc, func(tx *MPTxn) error {
		legs = legs[:0]
		src, err := tx.readCut(source, params)
		if err != nil {
			return err
		}
		if len(src) == 0 {
			return nil
		}
		full := make([]types.Row, 0, len(src))
		for _, r := range src {
			if len(r) != len(colMap) {
				return fmt.Errorf("core: INSERT into %q expects %d columns, SELECT yields %d",
					rel.Name, len(colMap), len(r))
			}
			row := make(types.Row, rel.Schema.NumColumns())
			for i := range row {
				row[i] = types.Null
			}
			for i, ord := range colMap {
				row[ord] = r[i]
			}
			full = append(full, row)
		}
		insert := func(part int, rows []types.Row) error {
			lf, err := tx.sendInsertRows(part, rel.Name, rows)
			if err == nil {
				legs = append(legs, lf)
			}
			return err
		}
		switch {
		case rel.Partitioned():
			buckets := make(map[int][]types.Row)
			for _, row := range full {
				v, err := insertPartValue(rel, row[rel.PartCol])
				if err != nil {
					return err
				}
				row[rel.PartCol] = v
				p := tx.PartitionFor(v)
				buckets[p] = append(buckets[p], row)
			}
			for part := 0; part < tx.NumPartitions(); part++ {
				if len(buckets[part]) > 0 {
					if err := insert(part, buckets[part]); err != nil {
						return err
					}
				}
			}
		case rel.Kind == catalog.KindTable:
			// Replicated target: identical batch on every replica.
			sum = false
			for part := 0; part < tx.NumPartitions(); part++ {
				if err := insert(part, full); err != nil {
					return err
				}
			}
		default:
			// Pinned stream target fed from a partitioned source.
			return insert(0, full)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return legsResult(legs, sum)
}

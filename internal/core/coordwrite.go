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
	n := 0
	err := s.runMP(pe.AdHocProc, func(tx *MPTxn) error {
		res, err := tx.ExecAll(sqlText, params...)
		if err != nil {
			return err
		}
		n = 0
		for i, r := range res {
			if sum || i == 0 {
				n += r.RowsAffected
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &pe.Result{RowsAffected: n}, nil
}

// bucketRows groups rows into buckets, indexed by partition, by the
// partition targets names for each, in statement order within a bucket.
// The buckets share one array, so a statement's buckets cost one
// allocation however many partitions they span.
func bucketRows(buckets [][]types.Row, rows []types.Row, targets []int) {
	grouped := make([]types.Row, 0, len(rows))
	for part := range buckets {
		from := len(grouped)
		for i, t := range targets {
			if t == part {
				grouped = append(grouped, rows[i])
			}
		}
		buckets[part] = grouped[from:len(grouped):len(grouped)]
	}
}

// coordInsertBuckets inserts per-partition row batches, indexed by
// partition, as one coordinated transaction: the legs commit atomically or
// not at all.
func (s *Store) coordInsertBuckets(table string, buckets [][]types.Row) (*pe.Result, error) {
	n := 0
	err := s.runMP(pe.AdHocProc, func(tx *MPTxn) error {
		var buf [2]*pe.MPSession // a pair's legs stay on the stack
		legs, err := tx.legs(buf[:0], func(part int) bool { return len(buckets[part]) > 0 })
		if err != nil {
			return err
		}
		n = 0
		for _, rows := range buckets {
			if len(rows) == 0 {
				continue
			}
			c, err := tx.insertRows(legs[0], table, rows)
			if err != nil {
				return err
			}
			legs, n = legs[1:], n+c
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &pe.Result{RowsAffected: n}, nil
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
	n := 0
	err = s.runMP(pe.AdHocProc, func(tx *MPTxn) error {
		n = 0
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
		// readCut holds every leg's engine, so no insert waits on a worker.
		// count says whether a leg's rows add to the statement's count: a
		// replicated target's replicas after the first repeat it.
		insert := func(part int, rows []types.Row, count bool) error {
			sess, err := tx.session(part)
			if err != nil {
				return err
			}
			c, err := tx.insertRows(sess, rel.Name, rows)
			if count {
				n += c
			}
			return err
		}
		switch {
		case rel.Partitioned():
			buckets := make([][]types.Row, tx.NumPartitions())
			for _, row := range full {
				v, err := insertPartValue(rel, row[rel.PartCol])
				if err != nil {
					return err
				}
				row[rel.PartCol] = v
				p := tx.PartitionFor(v)
				buckets[p] = append(buckets[p], row)
			}
			for part, rows := range buckets {
				if len(rows) > 0 {
					if err := insert(part, rows, true); err != nil {
						return err
					}
				}
			}
		case rel.Kind == catalog.KindTable:
			// Replicated target: identical batch on every replica.
			for part := 0; part < tx.NumPartitions(); part++ {
				if err := insert(part, full, part == 0); err != nil {
					return err
				}
			}
		default:
			// Pinned stream target fed from a partitioned source.
			return insert(0, full, true)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &pe.Result{RowsAffected: n}, nil
}

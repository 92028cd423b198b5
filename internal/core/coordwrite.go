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
// Like single-partition ad-hoc Exec, these legs are not command-logged;
// durable writes belong in stored procedures or MultiPartitionTxn.

// coordExecAll runs one statement on every partition as a single
// coordinated transaction. With sum set, RowsAffected totals the legs
// (hash-split data); without it, partition 0's count stands for the
// logical result (replicated data).
func (s *Store) coordExecAll(sqlText string, params []types.Value, sum bool) (*pe.Result, error) {
	var results []*pe.Result
	err := s.runMP(false, func(tx *MPTxn) error {
		var err error
		results, err = tx.ExecAll(sqlText, params...)
		return err
	})
	if err != nil {
		return nil, err
	}
	first := results[0]
	if sum && first != nil {
		total := 0
		for _, res := range results {
			if res != nil {
				total += res.RowsAffected
			}
		}
		first.RowsAffected = total
	}
	return first, nil
}

// coordInsertBuckets inserts per-partition row batches as one coordinated
// transaction: the legs commit atomically or not at all.
func (s *Store) coordInsertBuckets(table string, buckets map[int][]types.Row) (*pe.Result, error) {
	total := 0
	err := s.runMP(false, func(tx *MPTxn) error {
		for part := 0; part < tx.NumPartitions(); part++ {
			rows := buckets[part]
			if len(rows) == 0 {
				continue
			}
			res, err := tx.InsertRows(part, table, rows)
			if err != nil {
				return err
			}
			total += res.RowsAffected
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &pe.Result{RowsAffected: total}, nil
}

// execInsertSelect routes INSERT ... SELECT. The previously rejected
// shapes — partitioned target, partitioned or pinned source feeding a
// replicated target — materialize the source rows and insert them through
// the coordinator, with the read and the writes inside one transaction
// (every enlisted partition is parked, so the rows inserted are exactly
// the rows read). Shapes that were already routable keep their old plans.
func (s *Store) execInsertSelect(ins *sql.Insert, rel *catalog.RelDef, sqlText string, params []types.Value) (*pe.Result, error) {
	// Scope, merge plan and leg of the source come from the read path's
	// planner; the legs below run on the enlisted workers' views instead of
	// a snapshot cut.
	sch := s.schema.Load()
	plan, err := planSelect(sch, ins.Query, sqlText, true, params)
	if err != nil {
		return nil, err
	}
	srcPart := plan.merge != nil
	if !rel.Partitioned() && !srcPart {
		if rel.Kind != catalog.KindTable {
			// Pinned stream target, partition-0 source: everything local.
			return s.partList()[0].pe.Exec(sqlText, params...)
		}
		// Replicated target: when the source is replicated too, every leg
		// computes identical rows and the statement broadcasts untouched
		// (coordinated, so replicas cannot diverge on a failing leg). A
		// pinned source lives on partition 0 only — fall through to
		// materialization.
		if vetSourceSelect(sch, ins.Query, true) == nil {
			return s.coordExecAll(sqlText, params, false)
		}
	}

	colMap, err := insertColMap(ins, rel)
	if err != nil {
		return nil, err
	}
	affected := 0
	err = s.runMP(false, func(tx *MPTxn) error {
		var src []types.Row
		if srcPart {
			results, err := tx.eachPartition(func(part int) (*pe.Result, error) {
				return tx.queryLeg(part, &plan)
			})
			if err != nil {
				return err
			}
			merged, err := plan.merge.merge(ins.Query, results, params)
			if err != nil {
				return err
			}
			src = merged.Rows
		} else {
			res, err := tx.queryLeg(0, &plan)
			if err != nil {
				return err
			}
			src = res.Rows
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
				if len(buckets[part]) == 0 {
					continue
				}
				res, err := tx.InsertRows(part, rel.Name, buckets[part])
				if err != nil {
					return err
				}
				affected += res.RowsAffected
			}
		case rel.Kind == catalog.KindTable:
			// Replicated target: identical batch on every replica.
			for part := 0; part < tx.NumPartitions(); part++ {
				if _, err := tx.InsertRows(part, rel.Name, full); err != nil {
					return err
				}
			}
			affected = len(full)
		default:
			// Pinned stream target fed from a partitioned source.
			res, err := tx.InsertRows(0, rel.Name, full)
			if err != nil {
				return err
			}
			affected = res.RowsAffected
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &pe.Result{RowsAffected: affected}, nil
}

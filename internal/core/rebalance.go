package core

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/storage"
	"repro/internal/types"
)

// This file is online elastic repartitioning: Store.Rebalance grows a
// running store to a larger partition count and migrates slots to their
// canonical owners one at a time, under live load. The protocol per slot:
//
//   1. Copy      — the slot's rows are read from an MVCC snapshot of the
//                  source (pinned at S1; writers keep running) and staged on
//                  the destination (StageInsert: in the heap, in no index,
//                  visible at no sequence), in chunks on the destination's
//                  worker so its single-mutator invariant holds. Nothing is
//                  logged: a crash before the commit record leaves the
//                  slot on its source.
//   2. Cutover   — under the routing fence (routingMu) and an all-partition
//                  barrier: catch up the writes between S1 and the barrier
//                  (DeltaScan), precheck constraints, force one
//                  coordinated-commit record that carries the staged rows
//                  as the destination's leg and names the move (the commit
//                  point), flip the staged rows live, MVCC-delete the
//                  source copies, and publish the new slot table plus both
//                  partitions' commit sequences in one seqMu write window.
//
// The barrier is entered only after every request already routed to the
// source has drained: routing fast paths resolve-and-enqueue under
// routingMu's read side, the cutover holds the write side, and the barrier
// task queues behind everything previously enqueued — so DeltaScan's upper
// bound S2 covers every pre-cutover write, and everything after the fence
// routes by the new table.
//
// Tables and streams migrate: border tuples drain into their consumers
// before the barrier, so a stream holds only what an aborted execution
// left behind, and that moves with its slot like a row. Not migrated:
// PARTIAL relations (partition-local partial state stays put) and windows
// (rebuilt by the stream flowing anew). Border backlogs of PAUSED
// dataflows are not re-routed either — resume them before rebalancing.

// migrateChunk bounds how many rows one destination-worker visit stages,
// so the copy phase never parks the destination for long.
const migrateChunk = 512

// testHookAfterCopy, when set, runs after a migration's bulk copy and
// before the cutover fence is taken. Returning an error aborts the
// migration with its staged rows dropped — the crash-recovery tests use it
// to strand a copied slot without a commit record.
var testHookAfterCopy func(slot int) error

// Rebalance grows the store to target partitions online: new partition
// workers are added at runtime (synced to the Schema, procedures and
// dataflows wired; replicated tables copied durably), then every slot whose
// canonical owner changed is migrated under live load, one at a time. The
// per-slot routing pause is bounded by the cutover barrier — bulk copying
// happens against an MVCC snapshot with all workers running. Shrinking is
// not supported.
func (s *Store) Rebalance(target int) error {
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()
	n := s.NumPartitions()
	switch {
	case target < 1:
		return fmt.Errorf("core: rebalance to %d partitions: target must be at least 1", target)
	case target < n:
		return fmt.Errorf("core: rebalance to %d partitions: store has %d; "+
			"shrinking the partition count is not supported", target, n)
	}
	if !s.partList()[0].pe.Started() {
		return fmt.Errorf("core: rebalance requires a started store " +
			"(reopen with a larger Partitions count for offline growth)")
	}
	if s.cfg.Dir != "" {
		// Durable growth intent before anything moves: a crash mid-rebalance
		// recovers by reopening with the new count, where the canonical
		// recovery pass finishes the redistribution.
		if err := s.stampPartitions(target); err != nil {
			return fmt.Errorf("core: rebalance: stamping partition count: %w", err)
		}
	}
	if target > n {
		if err := s.addPartitions(target); err != nil {
			return err
		}
	}
	for _, mv := range s.slots.Load().Moves(target) {
		if err := s.migrateSlot(mv.Slot, mv.From, mv.To); err != nil {
			return err
		}
	}
	s.cfg.Partitions = target
	s.met.Add(metrics.Rebalances, 1)
	return nil
}

// addPartitions builds, seeds, starts, and publishes partitions
// len(partList())..target-1. exclMu is held across the whole step (one
// barrier-class operation at a time), and the seeding pass additionally
// holds every existing partition's 2PC enlistment slot: replicated tables
// are only written by coordinated transactions, so with all slots held no
// coordinator is mid-protocol and partition 0's copies are stable (and
// contain no uncommitted leg writes) while they are cloned onto the
// newcomers. deployMu keeps the Schema and the procedures still and keeps
// concurrent Deploy / Pause / Resume from fanning out over a list about to
// be extended.
func (s *Store) addPartitions(target int) error {
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	s.exclMu.Lock()
	defer s.exclMu.Unlock()
	parts := s.partList()
	sch := s.schema.Load()

	var added []*partition
	for idx := len(parts); idx < target; idx++ {
		np := s.newPartition(idx)
		if err := np.ee.Sync(sch); err != nil {
			return fmt.Errorf("core: rebalance: schema on partition %d: %w", idx, err)
		}
		for _, proc := range s.procs {
			if err := np.pe.RegisterProcedure(proc); err != nil {
				return fmt.Errorf("core: rebalance: procedure %q on partition %d: %w", proc.Name, idx, err)
			}
		}
		for _, df := range sch.Dataflows() {
			if err := deployOnPartition(np, df); err != nil {
				return fmt.Errorf("core: rebalance: dataflow %q on partition %d: %w", df.Name, idx, err)
			}
			if df.Paused {
				np.pe.PauseGraph(df.Name)
			}
		}
		if err := s.attachColdStore(np); err != nil {
			return fmt.Errorf("core: rebalance: partition %d: %w", idx, err)
		}
		if s.log != nil {
			np.pe.SetLogger(np, s.cfg.LogMode)
		}
		added = append(added, np)
	}

	// Seed replicated tables while the new engines are still stopped. All
	// existing enlistment slots are held across the scan so no coordinated
	// transaction is mid-protocol (replicated tables are written only by
	// coordinated transactions; see the doc comment above).
	acquireAllSlots(parts)
	for _, np := range added {
		if err := s.seedReplicated(np); err != nil {
			releaseAllSlots(parts)
			return fmt.Errorf("core: rebalance: seeding partition %d: %w", np.idx, err)
		}
	}
	releaseAllSlots(parts)

	for _, np := range added {
		if err := np.pe.Start(); err != nil {
			for _, q := range added {
				if q.pe.Started() {
					q.pe.Stop()
				}
			}
			return err
		}
	}

	// Publish the extended list in one seqMu write window: readers
	// capture the partition list and pin commit sequences under seqMu's
	// read side, so they see the new partitions together with their
	// published clocks or not at all. Routing needs no fence here — the
	// newcomers own no slots until migrateSlot moves some.
	extended := make([]*partition, 0, target)
	extended = append(extended, parts...)
	extended = append(extended, added...)
	s.seqMu.Lock()
	s.partsPtr.Store(&extended)
	for _, np := range added {
		np.cat.Clock().Publish()
	}
	s.seqMu.Unlock()
	return nil
}

// rehomePartials moves the source's buffered partial border batches whose
// tuples key to the migrated slot onto the destination. Queued FULL batches
// drained into their consumers before the cutover barrier, but a half-full
// batch never enters the queue: left behind, its tuples would execute on
// the old owner at the next cut or flush and rebuild migrated rows there.
// Called with routingMu still held exclusively, so the moved tuples enqueue
// on the destination ahead of any post-cutover ingest for their keys.
func (s *Store) rehomePartials(src, dst *partition, slot int) error {
	for _, rel := range migratedRels(src.cat) {
		if rel.Kind != catalog.KindStream {
			continue
		}
		rel := rel
		moved := src.pe.ExtractPartial(rel.Name, func(row types.Row) bool {
			if rel.PartCol >= len(row) {
				return false
			}
			// Hash exactly as the router did when it picked the source.
			v, err := insertPartValue(rel.RelDef, row[rel.PartCol])
			return err == nil && catalog.SlotOf(v) == slot
		})
		if len(moved) == 0 {
			continue
		}
		if err := dst.pe.Ingest(rel.Name, moved...); err != nil {
			return fmt.Errorf("re-homing %d buffered %s tuples: %w", len(moved), rel.Name, err)
		}
	}
	return nil
}

// migrateSlot moves one slot's rows from partition from to partition to
// with the copy / cutover protocol described at the top of this file. Only
// the cutover pauses the store, and only for the delta.
func (s *Store) migrateSlot(slot, from, to int) error {
	parts := s.partList()
	src, dst := parts[from], parts[to]
	rels := migratedRels(src.cat)

	id := s.nextMPTxnID.Add(1)

	// staged maps, per table, the source RowID of every copied row to its
	// staged destination RowID, so catch-up can unstage rows that died
	// between the snapshot and the barrier.
	staged := make(map[string]map[storage.RowID]storage.RowID, len(rels))
	s1 := src.cat.Clock().AcquireSnapshot()
	released := false
	release := func() {
		if !released {
			src.cat.Clock().ReleaseSnapshot(s1)
			released = true
		}
	}
	defer release()
	abort := func() {
		_ = dst.pe.RunExclusive(func() error {
			for _, rel := range rels {
				dst.cat.Relation(rel.Name).Table.DropStaged()
			}
			return nil
		})
	}

	// Bulk copy at S1: source workers keep running (snapshot reads), the
	// destination worker is visited in chunks (staging must happen on it).
	for _, rel := range rels {
		ids := make(map[storage.RowID]storage.RowID)
		staged[rel.Name] = ids
		dstTable := dst.cat.Relation(rel.Name).Table
		col := rel.PartCol
		var batchIDs []storage.RowID
		var batch []types.Row
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			bIDs, bRows := batchIDs, batch
			batchIDs, batch = nil, nil
			return dst.pe.RunExclusive(func() error {
				for i, row := range bRows {
					sid, err := dstTable.StageInsert(row)
					if err != nil {
						return err
					}
					ids[bIDs[i]] = sid
				}
				return nil
			})
		}
		var copyErr error
		rel.Table.SnapshotScan(s1.Seq(), func(rid storage.RowID, row types.Row) bool {
			if catalog.SlotOf(row[col]) != slot {
				return true
			}
			batchIDs = append(batchIDs, rid)
			batch = append(batch, row)
			if len(batch) >= migrateChunk {
				copyErr = flush()
			}
			return copyErr == nil
		})
		if copyErr == nil {
			copyErr = flush()
		}
		if copyErr != nil {
			abort()
			return fmt.Errorf("core: slot %d copy (%s): %w", slot, rel.Name, copyErr)
		}
	}

	if hook := testHookAfterCopy; hook != nil {
		if err := hook(slot); err != nil {
			abort()
			return err
		}
	}

	// Cutover: the routing fence first (no new request can resolve a
	// partition), then the all-partition barrier (everything already
	// enqueued has drained). Between S1 and the barrier's S2 lies every
	// write the bulk copy missed.
	s.routingMu.Lock()
	var pause time.Duration
	moved := 0
	err := s.runExclusiveAll(func() error {
		start := time.Now()
		s2 := src.cat.Clock().Current()
		for _, rel := range rels {
			dstTable := dst.cat.Relation(rel.Name).Table
			ids := staged[rel.Name]
			col := rel.PartCol
			var dsErr error
			rel.Table.DeltaScan(s1.Seq(), s2, func(rid storage.RowID, row types.Row, born bool) bool {
				if catalog.SlotOf(row[col]) != slot {
					return true
				}
				if born {
					sid, err := dstTable.StageInsert(row)
					if err != nil {
						dsErr = err
						return false
					}
					ids[rid] = sid
				} else if sid, ok := ids[rid]; ok {
					if err := dstTable.Unstage(sid); err != nil {
						dsErr = err
						return false
					}
					delete(ids, rid)
				}
				return true
			})
			if dsErr != nil {
				return dsErr
			}
		}
		// Everything fallible happens before the commit record: once it is
		// durable the flip cannot be allowed to fail.
		var ops []pe.LoggedOp
		for _, rel := range rels {
			dstTable := dst.cat.Relation(rel.Name).Table
			if dstTable.StagedCount() == 0 {
				continue
			}
			if err := dstTable.PrecheckStaged(); err != nil {
				return err
			}
			ops = append(ops, pe.LoggedOp{Table: rel.Name, Rows: dstTable.StagedRows()})
		}
		// The staged images become the destination's leg of one record
		// that names the move: the move is decided once it is durable. It
		// follows every record that wrote the slot on the source, so the
		// source drops the slot's rows when it applies. The leg is written
		// even when empty: a destination can re-own a slot it held in an
		// earlier epoch, and the leg's replay is what evicts the stale rows
		// its own records re-create — including when every row of the slot
		// died while it lived elsewhere. Like a router write's, the record
		// names AdHocProc and fires no PE trigger at replay: the stream
		// tuples it moves start nothing live either.
		if err := dst.force(&pe.LogRecord{Kind: pe.RecCoordCommit, Proc: pe.AdHocProc, MPTxnID: id,
			Legs: []pe.Leg{{Part: to, Ops: ops}}, Move: true, Slot: slot, FromPart: from, ToPart: to}); err != nil {
			return err
		}
		for _, rel := range rels {
			moved += dst.cat.Relation(rel.Name).Table.CommitStaged()
		}
		// Source deletes are in-memory MVCC kills: readers pinned before the
		// publication window below keep seeing the old versions, and the
		// move's record is what makes the removal durable.
		if err := evictSlots(rels, func(sl int) bool { return sl == slot }); err != nil {
			return err
		}
		// One seqMu write window publishes the ownership flip and both
		// partitions' commit sequences together: a reader sees the
		// slot's rows on the source or on the destination, never both.
		ns := s.slots.Load().Clone()
		ns.Owner[slot] = uint16(to)
		s.seqMu.Lock()
		s.slots.Store(ns)
		src.cat.Clock().Publish()
		dst.cat.Clock().Publish()
		s.seqMu.Unlock()
		pause = time.Since(start)
		return nil
	})
	if err == nil {
		err = s.rehomePartials(src, dst, slot)
	}
	s.routingMu.Unlock()
	if err != nil {
		abort()
		return fmt.Errorf("core: slot %d cutover: %w", slot, err)
	}
	release()
	s.met.Observe(metrics.CutoverPause, int64(pause))
	s.met.Add(metrics.SlotsMigrated, 1)
	s.met.Add(metrics.SlotRowsMoved, int64(moved))
	return nil
}

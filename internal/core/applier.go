package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/pe"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// This file is the one place that knows how a stream of log records becomes
// storage state. Crash recovery, a follower's continuous apply, promotion,
// and the seeding of a new partition are the same machine fed from a file,
// a socket, or partition 0's tables:
//
//	fold    every record of the log updates the state table below;
//	apply   a record is replayed into the partition it is tagged with,
//	        consulting the table for 2PC legs;
//	finish  the endgame once no more records can arrive;
//	seed    new rows enter a stopped partition as a decided prepared leg.
//
// The feeds differ only in when they know the stream has ended. Recovery
// folds the whole log before applying anything, so every decision that
// will ever exist is already in the table (final). A follower folds and
// applies as frames arrive, and the pipelined commit path releases a
// transaction's partition slots before its markers append, so records of
// successor transactions can precede a RecDecide in the log: a follower
// must never infer an abort from what follows an unresolved RecPrepare. It
// stalls that partition's records instead, the other partitions' applying
// past them, and only promotion — when no decision can ever arrive —
// presumes the leg aborted, and logs it (finish), as recovery does.

// applier is the state table plus the store it applies into. It is owned by
// one goroutine at a time (Recover's caller, or a follower's apply loop and
// then its promoter); nothing in it is shared with the partition engines.
type applier struct {
	st *Store
	// decisions holds the transaction ids with a durable decision, true for
	// commit: a RecDecide marker under any partition (a coordinator appends
	// a commit marker per writing leg once every vote is durable, so the
	// first one decides; finish logs presumed aborts), or a RecSlotCommit,
	// the decision for a migration's prepared leg. Absent = in doubt.
	decisions map[uint64]bool
	presumed  map[int][]*pe.LogRecord // per partition: the aborts finish logs for dropped legs
	// slotMoves maps a committed slot-migration leg to its commit record. A
	// migration with no commit record is not in it: its source copy stays
	// authoritative.
	slotMoves map[uint64]*pe.LogRecord
	// snaps are the partitions' snapshots (recovery's file feed): a record
	// at or below its partition's LastLSN is covered.
	snaps []wal.Snapshot
	// paused is the set of dataflows with a pause record and no later resume.
	paused map[string]bool
	// maxMP is the largest 2PC transaction id seen in any stream. The store's
	// id counter restarts above it so a new decision can never resurrect an
	// old in-doubt leg.
	maxMP uint64
	// replayed counts records executed through pe.Replay (a follower reports
	// it as repl_records_applied).
	replayed int64
}

// newApplier prepares every partition engine for replay. Replay must see
// the log mode the records were written under: the engine interprets
// triggered records only in LogAllTEs mode.
func newApplier(s *Store) *applier {
	for _, p := range s.partList() {
		p.pe.SetLogger(nil, s.cfg.LogMode)
	}
	return &applier{
		st:        s,
		decisions: make(map[uint64]bool),
		slotMoves: make(map[uint64]*pe.LogRecord),
		presumed:  make(map[int][]*pe.LogRecord),
		paused:    make(map[string]bool),
	}
}

// fold updates the state table from one record of any stream. The error is
// a divergence: the stream describes a store this one cannot become.
func (a *applier) fold(rec *pe.LogRecord) error {
	switch rec.Kind {
	case pe.RecDecide:
		a.decisions[rec.MPTxnID] = a.decisions[rec.MPTxnID] || rec.Commit
	case pe.RecSlotCommit:
		if n := a.st.NumPartitions(); rec.ToPart >= n {
			return fmt.Errorf("core: the log moves slot %d to partition %d, but this store has %d partitions; "+
				"open it with Partitions: %d or more", rec.Slot, rec.ToPart, n, rec.ToPart+1)
		}
		a.decisions[rec.MPTxnID] = true
		a.slotMoves[rec.MPTxnID] = rec
	case pe.RecPauseGraph:
		a.paused[rec.Proc] = true
	case pe.RecResumeGraph:
		delete(a.paused, rec.Proc)
	}
	if rec.MPTxnID > a.maxMP {
		a.maxMP = rec.MPTxnID
	}
	return nil
}

// entry decodes one record of a log of part (see logFile): behind its
// partition's tag (encodeEntry) in the store's log. A partition this store
// does not have is a divergence.
func (a *applier) entry(payload []byte, part int) (int, *pe.LogRecord, error) {
	if part < 0 {
		tag, n := binary.Uvarint(payload)
		if n <= 0 || tag >= uint64(a.st.NumPartitions()) {
			return 0, nil, fmt.Errorf("core: the log holds a record of partition %d, but this store has %d partitions; "+
				"open it with Partitions: %d or more", tag, a.st.NumPartitions(), tag+1)
		}
		part, payload = int(tag), payload[n:]
	}
	rec, err := wal.DecodeRecord(payload)
	return part, rec, err
}

// foldFile folds every intact record of one log file. A torn tail drops
// records whose force never completed: a marker lost there belongs to a
// transaction that was never acknowledged, and presuming it aborted is
// exactly right unless another leg's marker survived.
func (a *applier) foldFile(lf logFile) error {
	_, err := wal.ScanLog(lf.path, func(_ uint64, payload []byte) error {
		_, rec, err := a.entry(payload, lf.part)
		if err == nil {
			err = a.fold(rec)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("core: log pre-scan: %w", err)
	}
	return nil
}

// replay is the one replay loop: it feeds each record of a log file past
// its partition's snapshot through strm's pending list, so a stream that
// is not final keeps what stalls there, as live. strm ends after the
// file's last record, whose payload it keeps in last, to check the source's
// frame against (nil and nothing to check if the file holds none).
func (a *applier) replay(lf logFile, strm *replStream, final bool) error {
	strm.last, strm.check = nil, false
	_, err := wal.ScanLog(lf.path, func(lsn uint64, payload []byte) error {
		strm.last, strm.check = append(strm.last[:0], payload...), true
		strm.fetched = max(strm.fetched, lsn)
		part, rec, err := a.entry(payload, lf.part)
		if err != nil || lsn <= a.snaps[part].LastLSN {
			return err // or already covered by the snapshot
		}
		strm.pending = append(strm.pending, pendingRec{lsn: lsn, part: part, rec: rec})
		_, err = a.drain(strm, final)
		return err
	})
	if err != nil {
		return fmt.Errorf("core: log replay: %w", err)
	}
	return nil
}

// drain applies a stream's pending records in log order, each on its own
// partition. A record that stalls stays pending, and so does every later
// record of its partition; the other partitions' records apply past it.
// The stream has applied everything before its first pending record.
func (a *applier) drain(strm *replStream, final bool) (applied bool, err error) {
	parts := a.st.partList()
	var stalled []bool // by partition, made at the first stall
	kept := strm.pending[:0]
	for _, pr := range strm.pending {
		if stalled == nil || !stalled[pr.part] {
			st, err := a.apply(parts[pr.part], pr.rec, final)
			if err != nil { // a divergence: the stream is done
				return applied, fmt.Errorf("core: replay at LSN %d (partition %d): %w", pr.lsn, pr.part, err)
			}
			if !st {
				applied = true
				continue
			}
			if stalled == nil {
				stalled = make([]bool, len(parts))
			}
			stalled[pr.part] = true
		}
		kept = append(kept, pr)
	}
	clear(strm.pending[len(kept):])
	strm.pending = kept
	if len(kept) > 0 {
		strm.applied.Store(kept[0].lsn - 1)
	} else {
		strm.applied.Store(strm.fetched)
	}
	return applied, nil
}

// apply replays one record, already folded, into its partition p. An
// in-doubt RecPrepare stalls p (nothing applied; retry the same record once
// more of the stream is folded) unless the stream is final, when the leg is
// dropped as presumed aborted: p's records behind it executed on the
// primary without ever reading its unpublished writes, as a leg decided
// abort is.
func (a *applier) apply(p *partition, rec *pe.LogRecord, final bool) (stalled bool, err error) {
	switch rec.Kind {
	case pe.RecDecide, pe.RecPauseGraph, pe.RecResumeGraph:
		return false, nil // folded on arrival; applies nothing
	case pe.RecSlotCommit:
		// Folded on arrival. Nothing the source logs after its copy of
		// this record touches the slot, so the source's rows of it go now:
		// a follower then holds them on one partition, not two until
		// promotion.
		if rec.FromPart == p.idx {
			if err := evictSlots(migratedRels(p.cat), func(s int) bool { return s == rec.Slot }); err != nil {
				return false, fmt.Errorf("core: replay of slot %d's move off partition %d: %w", rec.Slot, p.idx, err)
			}
			p.cat.Clock().Publish()
		}
		return false, nil
	case pe.RecPrepare:
		commit, decided := a.decisions[rec.MPTxnID]
		if !decided && final {
			a.presumed[p.idx] = append(a.presumed[p.idx], &pe.LogRecord{Kind: pe.RecDecide, MPTxnID: rec.MPTxnID})
		}
		if !commit {
			return !decided && !final, nil
		}
		// A slot-move leg is the complete authoritative content of its slot
		// at cutover time. A partition can re-own a slot it held in an
		// earlier epoch, and its own records then re-create the slot's rows
		// before the incoming leg replays: evict those stale copies first
		// (the leg may even be empty — every row of the slot died while it
		// lived elsewhere).
		if mv, ok := a.slotMoves[rec.MPTxnID]; ok {
			if err := evictSlots(migratedRels(p.cat), func(s int) bool { return s == mv.Slot }); err != nil {
				return false, fmt.Errorf("core: replay of slot-move leg %d (slot %d): %w", rec.MPTxnID, mv.Slot, err)
			}
		}
	}
	a.replayed++
	return false, p.pe.Replay(rec)
}

// finish is the endgame shared by crash recovery and promotion, run once
// every stream has been applied with final set. First each partition runs
// the re-derived executions replay still holds (LogAllTEs: their own
// records never arrived), so every surviving border batch ends applied or
// aborted in both modes. The replayed log resurrects the source copies of committed slot migrations — the cutover's source deletions are
// in-memory only; the slot-commit record is what makes them durable, and
// the source's own copy of it is not forced — so each committed slot's
// rows are evicted from every partition but its owner, and only for slots
// with a commit record: an aborted migration's source copy is the
// authoritative one. A slot's owner is the destination of its committed
// move with the largest id: ids only grow, across restarts too, and one
// slot's moves are logged under different partitions. Then the slots route to their
// migrated owners, the replayed state is published to snapshot readers,
// graphs paused in the log stay paused, and the 2PC id counter restarts
// above everything the log has seen. Last, each presumed abort is forced
// under its leg's partition before Start; a crash first leaves the leg in
// doubt.
func (a *applier) finish() error {
	s := a.st
	for _, p := range s.partList() {
		p.pe.FinishReplay()
	}
	if len(a.slotMoves) > 0 {
		last := map[int]*pe.LogRecord{}
		for _, mv := range a.slotMoves {
			if l := last[mv.Slot]; l == nil || mv.MPTxnID > l.MPTxnID {
				last[mv.Slot] = mv
			}
		}
		tbl := s.slots.Load().Clone()
		for slot, mv := range last {
			tbl.Owner[slot] = uint16(mv.ToPart)
		}
		for _, p := range s.partList() {
			if err := evictSlots(migratedRels(p.cat), func(slot int) bool {
				mv, moved := last[slot]
				return moved && mv.ToPart != p.idx
			}); err != nil {
				return err
			}
		}
		s.slots.Store(tbl)
	}
	for _, p := range s.partList() {
		p.cat.Clock().Publish()
	}
	s.nextMPTxnID.Store(a.maxMP)
	if err := s.restorePausedGraphs(a.paused); err != nil {
		return err
	}
	for _, p := range s.partList() {
		if recs := a.presumed[p.idx]; len(recs) > 0 {
			if err := p.force(recs...); err != nil {
				return err
			}
		}
	}
	return nil
}

// evictSlots deletes every row of rels whose routing slot satisfies drop.
// The deletions are in-memory only: which slots a partition has lost is
// deterministic from the slot-commit records, so they need no logging of
// their own.
func evictSlots(rels []*catalog.Relation, drop func(slot int) bool) error {
	for _, rel := range rels {
		col := rel.PartCol
		var ids []storage.RowID
		rel.Table.Scan(func(id storage.RowID, row types.Row) bool {
			if drop(catalog.SlotOf(row[col])) {
				ids = append(ids, id)
			}
			return true
		})
		for _, id := range ids {
			if err := rel.Table.Delete(id, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// installLeg is the seed feed: it puts ops onto a stopped partition the way
// a coordinated write would have — a prepared leg and the record that
// decides it (a seed's RecDecide marker or a recovery-time slot move's
// RecSlotCommit; its MPTxnID is assigned here) forced together under the
// partition, then the leg's replay — so a crash right after recovers the
// rows from the log instead of having to re-detect that they are
// missing. The leg names AdHocProc, as a live migration's does: rows it
// moves into a stream start no PE trigger. On a non-durable store only the
// replay happens.
func (s *Store) installLeg(p *partition, ops []pe.LoggedOp, decision *pe.LogRecord) error {
	decision.MPTxnID = s.nextMPTxnID.Add(1)
	leg := &pe.LogRecord{Kind: pe.RecPrepare, Proc: pe.AdHocProc, MPTxnID: decision.MPTxnID, Ops: ops}
	if err := p.force(leg, decision); err != nil {
		return err
	}
	return p.pe.Replay(leg)
}

// seedReplicated copies partition 0's replicated tables onto p where p's
// copy is empty — the state of a partition with no record to replay.
// Replicated writes reach every partition through one coordinated
// transaction, so an empty copy beside a non-empty partition 0 can only
// mean the partition is new. The caller keeps partition 0 free of
// mid-protocol coordinated writes (recovery: nothing runs; live growth:
// every enlistment slot is held).
func (s *Store) seedReplicated(p *partition) error {
	var ops []pe.LoggedOp
	for _, rel := range replicatedTables(s.partList()[0].cat) {
		if rel.Table.Count() == 0 {
			continue
		}
		if local := p.cat.Relation(rel.Name); local == nil || local.Table.Count() > 0 {
			continue
		}
		ops = append(ops, pe.LoggedOp{Table: rel.Name, Rows: rel.Table.ScanRows()})
	}
	if len(ops) == 0 {
		return nil
	}
	return s.installLeg(p, ops, &pe.LogRecord{Kind: pe.RecDecide, Commit: true})
}

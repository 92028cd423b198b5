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
//	apply   a record is replayed into the partition it is tagged with, a
//	        coordinated commit into each of its legs' partitions;
//	finish  the endgame once no more records can arrive;
//	seed    new rows enter a stopped partition as a coordinated commit.
//
// A coordinated commit is one record, so every record applies as it
// arrives: a follower never waits for a decision. Only the two-phase
// records earlier versions wrote (a PREPARE per leg, decided by a DECIDE
// marker or a slot commit that may come later) need the whole log folded
// before a leg applies, and only crash recovery reads them, whose log is
// final: an undecided leg is dropped, and Recover checkpoints after
// replaying any of them, so they never reach a follower. A follower that
// meets one stops and must be re-seeded.

// applier is the state table plus the store it applies into. It is owned by
// one goroutine at a time (Recover's caller, or a follower's apply loop and
// then its promoter); nothing in it is shared with the partition engines.
type applier struct {
	st *Store
	// decisions holds the ids of the earlier versions' two-phase
	// transactions with a durable decision, true for commit: a RecDecide
	// marker under any partition, or a RecSlotCommit. Absent = undecided,
	// which recovery takes for aborted.
	decisions map[uint64]bool
	// slotMoves maps each slot move's transaction id to its record (a
	// RecCoordCommit with Move, or an earlier RecSlotCommit). An aborted
	// move logged nothing: its source copy stays authoritative.
	slotMoves map[uint64]*pe.LogRecord
	// snaps are the partitions' snapshots (recovery's file feed): a record
	// at or below its partition's LastLSN is covered.
	snaps []wal.Snapshot
	// paused is the set of dataflows with a pause record and no later resume.
	paused map[string]bool
	// maxMP is the largest coordinated transaction id seen in any stream.
	// The store's id counter restarts above it.
	maxMP uint64
	// twoPhase counts the earlier versions' two-phase records applied past
	// the snapshots; Recover checkpoints when there were any.
	twoPhase int
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
		paused:    make(map[string]bool),
	}
}

// fold updates the state table from one record of any stream. The error is
// a divergence: the stream describes a store this one cannot become.
func (a *applier) fold(rec *pe.LogRecord) error {
	switch rec.Kind {
	case pe.RecCoordCommit:
		for _, leg := range rec.Legs {
			if err := a.hasPart(uint64(leg.Part)); err != nil {
				return err
			}
		}
		if rec.Move {
			if err := a.hasPart(uint64(rec.FromPart)); err != nil {
				return err
			}
			a.slotMoves[rec.MPTxnID] = rec
		}
	case pe.RecDecide:
		a.decisions[rec.MPTxnID] = a.decisions[rec.MPTxnID] || rec.Commit
	case pe.RecSlotCommit:
		if err := a.hasPart(uint64(rec.ToPart)); err != nil {
			return err
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
		if n <= 0 {
			return 0, nil, fmt.Errorf("core: a log record has no partition tag")
		}
		if err := a.hasPart(tag); err != nil {
			return 0, nil, err
		}
		part, payload = int(tag), payload[n:]
	}
	rec, err := wal.DecodeRecord(payload)
	return part, rec, err
}

// hasPart is the divergence of a record that names partition part, which
// this store does not have; nil if it has it.
func (a *applier) hasPart(part uint64) error {
	if n := uint64(a.st.NumPartitions()); part >= n {
		return fmt.Errorf("core: the log holds a record of partition %d, but this store has %d partitions; "+
			"open it with Partitions: %d or more", part, n, part+1)
	}
	return nil
}

// foldFile folds every intact record of one log file. A torn tail drops
// records whose force never completed, none of which was acknowledged.
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

// replay is the one replay loop: it applies each record of a log file,
// folded already, past the snapshots. strm ends after the file's last
// record, whose payload it keeps in last, to check the source's frame
// against (nil and nothing to check if the file holds none).
func (a *applier) replay(lf logFile, strm *replStream, final bool) error {
	strm.last, strm.check = nil, false
	_, err := wal.ScanLog(lf.path, func(lsn uint64, payload []byte) error {
		strm.last, strm.check = append(strm.last[:0], payload...), true
		part, rec, err := a.entry(payload, lf.part)
		if err == nil {
			err = a.apply(lsn, part, rec, final)
		}
		strm.applied.Store(max(strm.applied.Load(), lsn))
		return err
	})
	if err != nil {
		return fmt.Errorf("core: log replay: %w", err)
	}
	return nil
}

// covered reports whether partition part's snapshot holds the record at
// lsn.
func (a *applier) covered(part int, lsn uint64) bool {
	return part < len(a.snaps) && lsn <= a.snaps[part].LastLSN
}

// apply replays one record at lsn, already folded, into the partition part
// it is tagged with, unless that partition's snapshot covers it; a
// coordinated commit applies each leg its partition's snapshot does not
// cover. An earlier version's two-phase record applies only on a final
// stream (recovery); a follower stops on it. The error is a divergence.
func (a *applier) apply(lsn uint64, part int, rec *pe.LogRecord, final bool) error {
	switch rec.Kind {
	case pe.RecCoordCommit:
		return a.applyCommit(lsn, rec)
	case pe.RecPauseGraph, pe.RecResumeGraph:
		return nil // folded on arrival; applies nothing
	}
	if a.covered(part, lsn) {
		return nil
	}
	p := a.st.partList()[part]
	switch rec.Kind {
	case pe.RecPrepare, pe.RecDecide, pe.RecSlotCommit:
		if !final {
			return fmt.Errorf("core: the log holds a two-phase record (kind %d, LSN %d) an earlier version wrote, "+
				"which a follower cannot apply: re-seed the follower", rec.Kind, lsn)
		}
		a.twoPhase++
		return a.applyTwoPhase(p, rec)
	}
	a.replayed++
	if err := p.pe.Replay(rec); err != nil {
		return fmt.Errorf("core: replay at LSN %d (partition %d): %w", lsn, part, err)
	}
	return nil
}

// applyCommit replays a coordinated commit's legs, each on its partition
// unless its snapshot covers the record. A slot move's leg is the slot's
// complete content at the cutover: the destination first drops the rows of
// the slot it holds from an earlier ownership, which its own records
// re-created, and the source drops the slot's rows last — nothing it logs
// after the move touches the slot.
func (a *applier) applyCommit(lsn uint64, rec *pe.LogRecord) error {
	parts := a.st.partList()
	a.replayed++
	for _, leg := range rec.Legs {
		if a.covered(leg.Part, lsn) {
			continue
		}
		p := parts[leg.Part]
		if rec.Move {
			if err := evictSlot(p, rec.Slot); err != nil {
				return err
			}
		}
		if err := p.pe.Replay(legRecord(rec, leg)); err != nil {
			return fmt.Errorf("core: replay at LSN %d (partition %d): %w", lsn, leg.Part, err)
		}
	}
	if rec.Move && !a.covered(rec.FromPart, lsn) {
		return evictSlot(parts[rec.FromPart], rec.Slot)
	}
	return nil
}

// legRecord is what pe.Replay is handed for one leg of rec.
func legRecord(rec *pe.LogRecord, leg pe.Leg) *pe.LogRecord {
	return &pe.LogRecord{Kind: pe.RecCoordCommit, Proc: rec.Proc, MPTxnID: rec.MPTxnID, Ops: leg.Ops}
}

// applyTwoPhase replays one of an earlier version's two-phase records at
// recovery, with the whole log folded: a prepared leg applies if a decision
// committed it and is dropped if none did, a slot-move leg as applyCommit's
// does, and the source's copy of a slot commit drops the slot's rows.
func (a *applier) applyTwoPhase(p *partition, rec *pe.LogRecord) error {
	switch {
	case rec.Kind == pe.RecSlotCommit && rec.FromPart == p.idx:
		return evictSlot(p, rec.Slot)
	case rec.Kind != pe.RecPrepare || !a.decisions[rec.MPTxnID]:
		return nil
	}
	if mv, ok := a.slotMoves[rec.MPTxnID]; ok {
		if err := evictSlot(p, mv.Slot); err != nil {
			return err
		}
	}
	a.replayed++
	return p.pe.Replay(rec)
}

// evictSlot drops partition p's rows of slot and publishes the deletions.
func evictSlot(p *partition, slot int) error {
	if err := evictSlots(migratedRels(p.cat), func(s int) bool { return s == slot }); err != nil {
		return fmt.Errorf("core: replay of slot %d's move (partition %d): %w", slot, p.idx, err)
	}
	p.cat.Clock().Publish()
	return nil
}

// finish is the endgame shared by crash recovery and promotion, run once
// every record has been applied. First each partition runs the re-derived
// executions replay still holds (LogAllTEs: their own records never
// arrived), so every surviving border batch ends applied or aborted in both
// modes. Then each moved slot's rows are evicted from every partition but
// its owner: a slot's owner is the destination of its move with the largest
// id (ids only grow, across restarts too), and a recovery-time move can
// leave the slot's rows on several sources. Then the slots route to their
// owners, the replayed state is published to snapshot readers, graphs
// paused in the log stay paused, and the id counter restarts above
// everything the log has seen.
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
	return s.restorePausedGraphs(a.paused)
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
// a coordinated write would have — one coordinated-commit record, its
// MPTxnID assigned here, forced, then the leg's replay — so a crash right
// after recovers the rows from the log instead of having to re-detect that
// they are missing. rec carries the one leg, p's, and for a recovery-time
// slot move the move. The record names AdHocProc, as a live migration's
// does: rows it moves into a stream start no PE trigger. On a non-durable
// store only the replay happens.
func (s *Store) installLeg(p *partition, rec *pe.LogRecord) error {
	rec.Kind, rec.Proc, rec.MPTxnID = pe.RecCoordCommit, pe.AdHocProc, s.nextMPTxnID.Add(1)
	if err := p.force(rec); err != nil {
		return err
	}
	return p.pe.Replay(legRecord(rec, rec.Legs[0]))
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
	return s.installLeg(p, &pe.LogRecord{Legs: []pe.Leg{{Part: p.idx, Ops: ops}}})
}

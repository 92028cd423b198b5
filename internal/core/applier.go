package core

import (
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
//	fold    every record of every partition segment updates the state
//	        table below;
//	apply   a partition record is replayed into its partition, consulting
//	        the table for 2PC legs;
//	finish  the endgame once no more records can arrive;
//	seed    new rows enter a stopped partition as a decided prepared leg.
//
// The feeds differ only in when they know the stream has ended. Recovery
// folds whole files before applying anything, so every decision that will
// ever exist is already in the table (final). A follower folds and applies
// as frames arrive, and the pipelined commit path releases a transaction's
// partition slots before its markers append, so records of successor
// transactions can precede a RecDecide in a segment, and a leg's decision
// may arrive first in another partition's stream: a follower must never
// infer an abort from what follows an unresolved RecPrepare. It stalls that
// partition instead, and only promotion — when no decision can ever arrive
// — presumes the leg aborted, and logs it (finish), as recovery does.

// applier is the state table plus the store it applies into. It is owned by
// one goroutine at a time (Recover's caller, or a follower's apply loop and
// then its promoter); nothing in it is shared with the partition engines.
type applier struct {
	st *Store
	// decisions holds the transaction ids with a durable decision, true for
	// commit: a RecDecide marker in any partition log (a coordinator appends
	// a commit marker per writing leg once every vote is durable, so the
	// first one decides; finish logs presumed aborts), or a RecSlotCommit,
	// the decision for a migration's prepared leg. Absent = in doubt.
	decisions map[uint64]bool
	presumed  map[int][]*pe.LogRecord // per partition: the aborts finish logs for dropped legs
	// slotMoves maps a committed slot-migration leg to its commit record. A
	// migration with no commit record is not in it: its source copy stays
	// authoritative.
	slotMoves map[uint64]*pe.LogRecord
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

// foldFile folds every intact record of one log file and returns its last
// LSN. A torn tail drops records whose force never completed: a marker
// lost there belongs to a transaction that was never acknowledged, and
// presuming it aborted is exactly right unless another leg's marker
// survived.
func (a *applier) foldFile(path string) (uint64, error) {
	return wal.ScanLog(path, func(_ uint64, payload []byte) error {
		rec, err := wal.DecodeRecord(payload)
		if err == nil {
			err = a.fold(rec)
		}
		return err
	})
}

// replay is the one per-partition replay loop: it feeds the log at path
// past snap (loaded into the partition, its deferred executions restored
// first) through strm's pending list, so a stream that is not final keeps
// what stalls there, as live. strm ends after the log's last record, whose
// payload it keeps in check (empty if the log holds none).
func (a *applier) replay(path string, snap wal.Snapshot, strm *replStream, final bool) error {
	p := a.st.partList()[strm.part]
	p.pe.SetNextBatchID(snap.NextBatchID)
	p.pe.Restore(snap.Records)
	strm.fetched = snap.LastLSN
	var last []byte
	_, err := wal.ScanLog(path, func(lsn uint64, payload []byte) error {
		last = append(last[:0], payload...)
		if lsn <= snap.LastLSN {
			return nil // already covered by the snapshot
		}
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			return err
		}
		strm.pending = append(strm.pending, pendingRec{lsn: lsn, rec: rec})
		strm.fetched = lsn
		_, err = a.drain(strm, final)
		return err
	})
	if err != nil {
		return fmt.Errorf("core: log replay (partition %d): %w", strm.part, err)
	}
	if strm.fetched > 0 {
		strm.check = append([]byte{}, last...)
	}
	return nil
}

// drain applies a stream's pending records in log order, stopping where
// the applier stalls.
func (a *applier) drain(strm *replStream, final bool) (applied bool, err error) {
	p := a.st.partList()[strm.part]
	for len(strm.pending) > 0 {
		pr := strm.pending[0]
		stalled, err := a.apply(p, pr.rec, final)
		if err != nil {
			return applied, fmt.Errorf("core: replay at LSN %d (partition %d): %w", pr.lsn, strm.part, err)
		}
		if stalled {
			break
		}
		strm.pending = strm.pending[1:]
		strm.applied.Store(pr.lsn)
		applied = true
	}
	return applied, nil
}

// apply replays one partition-log record, already folded, into p. An
// in-doubt RecPrepare stalls the stream (nothing applied; retry the same
// record once more of the other streams is folded) unless the stream
// is final, when the leg is dropped as presumed aborted: the records behind
// it executed on the primary without ever reading its unpublished writes,
// as a leg decided abort is.
func (a *applier) apply(p *partition, rec *pe.LogRecord, final bool) (stalled bool, err error) {
	switch rec.Kind {
	case pe.RecDecide, pe.RecPauseGraph, pe.RecResumeGraph:
		return false, nil // folded on arrival; applies nothing
	case pe.RecSlotCommit:
		// Folded on arrival. In the source's log nothing after this record
		// touches the slot, so the source's copy goes now: a follower then
		// holds the slot's rows on one partition, not two until promotion.
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
		// earlier epoch, and its own log then re-creates the slot's rows
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
// aborted in both modes. Replayed partition logs resurrect the source
// copies of committed slot migrations — the cutover's source deletions are
// in-memory only; the slot-commit record is what makes them durable, and
// the source's own copy of it is not forced — so each committed slot's
// rows are evicted from every partition but its owner, and only for slots
// with a commit record: an aborted migration's source copy is the
// authoritative one. A slot's owner is the destination of its committed
// move with the largest id: ids only grow, across restarts too, and one
// slot's moves sit in different logs. Then the slots route to their
// migrated owners, the replayed state is published to snapshot readers,
// graphs paused in the log stay paused, and the 2PC id counter restarts
// above everything the log has seen. Last, each presumed abort is forced
// into its leg's log before Start; a crash first leaves the leg in doubt.
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
// RecSlotCommit; its MPTxnID is assigned here) forced together into the
// partition's log, then the leg's replay — so a crash right after recovers
// the rows from the logs instead of having to re-detect that they are
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
// copy is empty — the state of a partition with no log to replay.
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

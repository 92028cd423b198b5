package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/benchmark/sut"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ee"
	"repro/internal/pe"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/storage/coldstore"
	"repro/internal/types"
	"repro/internal/wal"
)

// The ladder gets the layers below core.Store without instrumenting the
// program: the workload's own statements and rows are issued at
// successively deeper public entry points (pe.Engine, ee.Engine,
// storage.Table, wal.Log, sql, types, coldstore), and a layer's self time
// is its rung minus the rung below. Every rung runs a committed number of
// calls, in batches; a rung's value is the median of its batches' means.

const (
	ladderBatches = 9
	ladderPer     = 200 // calls per batch for calls of a microsecond or more
	ladderPerFast = 2000
)

// rung times batches×per calls of fn and returns the median over batches
// of the mean nanoseconds per call.
func rung(per int, fn func(i int) error) (float64, error) {
	means := make([]float64, 0, ladderBatches)
	i := 0
	for b := 0; b < ladderBatches; b++ {
		t0 := time.Now()
		for j := 0; j < per; j++ {
			if err := fn(i); err != nil {
				return 0, err
			}
			i++
		}
		means = append(means, float64(time.Since(t0))/float64(per))
	}
	return Median(means), nil
}

// profile is what the ladder needs to know about a workload: its main
// table, its statements, and how to draw keys and rows for them.
type profile struct {
	// primary is the span label of the workload's most frequent request
	// (recorder.primary holds the same request's wire round trips).
	primary string
	table   string
	// existing returns the key of a row the table holds; fresh returns a
	// row whose key it does not (i distinguishes calls).
	existing func(i int) types.Value
	fresh    func(i int) types.Row
	pointSQL string
	// insertSQL takes a fresh row's columns as parameters.
	insertSQL string
	// updateSQL takes updateParams(key of an existing row).
	updateSQL    string
	updateParams func(key types.Value) []types.Value
	// scanSQL reads scanRows rows per call (the workload's range or scan).
	scanSQL    string
	scanParams func(i int) []types.Value
	scanRows   int
	// callProc is the logged procedure the pe rung calls ("" on the
	// volatile workload: the rung is an ad-hoc pe.Engine.Exec of insertSQL).
	callProc   string
	callParams func(i int) []types.Value
	// window is a stream whose insert slides a window with an EE trigger.
	window    string
	windowRow func(i int) types.Row
	// votes draws ingest rows for the pe ingest rung (voter only).
	votes func() types.Row
	// record is the command-log record the workload's writes produce.
	record     *pe.LogRecord
	statements []string
}

// ladderRun carries one ladder's inputs and results. The first rung that
// fails stops the ladder: later measure calls do nothing.
type ladderRun struct {
	st   *core.Store
	o    *Options
	spec sut.Spec
	p    profile
	m    map[string]float64
	err  error
	// per and perFast are the calls per batch for slow and fast rungs; the
	// smoke test's scale shrinks them like everything else.
	per, perFast int
	slots        *catalog.SlotTable
}

// ladder runs every rung below core.Store on the in-process store st and
// adds the results to m.
func ladder(st *core.Store, o *Options, spec sut.Spec, p profile, m map[string]float64) error {
	l := &ladderRun{st: st, o: o, spec: spec, p: p, m: m,
		per: max(o.scaled(ladderPer), 2), perFast: max(o.scaled(ladderPerFast), 2),
		slots: catalog.NewSlotTable(spec.Partitions())}
	dir := filepath.Join(o.OutDir, fmt.Sprintf("ladder-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l.peRungs()
	l.eeRungs()
	l.storageRungs()
	l.walRungs(dir)
	buf := l.codecRungs()
	if spec.MemoryBudget() > 0 { // only where the workload has a cold store
		l.coldstoreRungs(dir, buf)
	}
	return l.err
}

// measure runs one rung and stores its value divided by scale under name.
func (l *ladderRun) measure(name string, scale float64, per int, fn func(i int) error) {
	if l.err != nil {
		return
	}
	ns, err := rung(per, fn)
	if err != nil {
		l.err = fmt.Errorf("%s: %w", name, err)
		return
	}
	l.m[name] = ns / scale
}

// partOf is the partition that owns a key of the profile's table.
func (l *ladderRun) partOf(v types.Value) int {
	if rel := l.st.Catalog().Relation(l.p.table); rel == nil || !rel.Partitioned() {
		return 0
	}
	return l.slots.Partition(v)
}

func (l *ladderRun) peRungs() {
	st, p := l.st, l.p
	if p.callProc != "" {
		// A logged call waits out a group-commit tick, so this rung is short.
		l.measure("pe.call_us", 1e3, max(l.per/4, 2), func(i int) error {
			params := p.callParams(i)
			part := 0
			if pr := st.PE().Procedure(p.callProc); pr.PartitionParam > 0 {
				part = l.partOf(params[pr.PartitionParam-1])
			}
			_, err := st.PEAt(part).Call(p.callProc, params...)
			return err
		})
	} else {
		l.measure("pe.call_us", 1e3, l.per, func(i int) error {
			row := p.fresh(1_000_000 + i)
			_, err := st.PEAt(l.partOf(row[0])).Exec(p.insertSQL, row...)
			return err
		})
	}
	l.measure("pe.query_point_us", 1e3, l.per, func(i int) error {
		k := p.existing(i)
		_, err := st.PEAt(l.partOf(k)).Query(p.pointSQL, k)
		return err
	})
	if p.votes == nil || l.err != nil {
		return
	}
	// Ingest is an enqueue; Flush + Drain is where the workflow runs.
	var enqueue, drain time.Duration
	msgs := max(l.o.scaled(64), 2)
	for i := 0; i < msgs; i++ {
		rows := make([]types.Row, voterIngestRows)
		for j := range rows {
			rows[j] = p.votes()
		}
		t0 := time.Now()
		if l.err = st.PE().Ingest("votes_in", rows...); l.err != nil {
			return
		}
		t1 := time.Now()
		st.PE().FlushBatches()
		st.PE().Drain()
		enqueue += t1.Sub(t0)
		drain += time.Since(t1)
	}
	l.m["pe.ingest_us_row"] = float64(enqueue) / 1e3 / float64(msgs*voterIngestRows)
	l.m["pe.ingest_drain_us_row"] = float64(enqueue+drain) / 1e3 / float64(msgs*voterIngestRows)
}

// eeRungs: reads run on this goroutine against a pinned snapshot, the path
// the workload's queries take; writes run on partition 0's goroutine under
// one undo log that is rolled back, so the store is unchanged.
func (l *ladderRun) eeRungs() {
	st, p := l.st, l.p
	snapshotSQL := func(part int, sqlText string, params []types.Value) error {
		eng := st.PEAt(part)
		pin := eng.AcquireSnapshot()
		defer eng.ReleaseSnapshot(pin)
		_, err := eng.EE().ExecSQL(&ee.ExecCtx{ReadOnly: true, Snapshot: true, SnapshotSeq: pin.Seq()}, sqlText, params...)
		return err
	}
	l.measure("ee.select_point_ns", 1, l.perFast, func(i int) error {
		k := p.existing(i)
		return snapshotSQL(l.partOf(k), p.pointSQL, []types.Value{k})
	})
	l.measure("ee.range_ns_row", float64(p.scanRows), l.per, func(i int) error {
		// A scan without a key fans out; the rung reads partition 0's share.
		var params []types.Value
		part := 0
		if p.scanParams != nil {
			params = p.scanParams(i)
			part = l.partOf(params[0])
		}
		return snapshotSQL(part, p.scanSQL, params)
	})

	write := func(name string, fn func(ctx *ee.ExecCtx, i int) error) {
		if l.err != nil {
			return
		}
		if err := st.PE().RunExclusive(func() error {
			undo := storage.NewUndoLog()
			defer undo.Rollback()
			ctx := &ee.ExecCtx{Undo: undo}
			l.measure(name, 1, l.per, func(i int) error { return fn(ctx, i) })
			return nil
		}); err != nil {
			l.err = err
		}
	}
	// Keys are drawn until one falls on partition 0.
	on0 := func(draw func(i int) types.Value) func() types.Value {
		next := 0
		return func() types.Value {
			for {
				v := draw(next)
				next++
				if l.partOf(v) == 0 {
					return v
				}
			}
		}
	}
	freshKey := on0(func(i int) types.Value { return p.fresh(2_000_000 + i)[0] })
	write("ee.insert_ns", func(ctx *ee.ExecCtx, i int) error {
		row := p.fresh(0)
		row[0] = freshKey()
		_, err := st.EE().ExecSQL(ctx, p.insertSQL, row...)
		return err
	})
	existing0 := on0(p.existing)
	write("ee.update_ns", func(ctx *ee.ExecCtx, i int) error {
		_, err := st.EE().ExecSQL(ctx, p.updateSQL, p.updateParams(existing0())...)
		return err
	})
	if p.window != "" {
		write("ee.window_trigger_ns", func(ctx *ee.ExecCtx, i int) error {
			_, err := st.EE().InsertRows(ctx, p.window, []types.Row{p.windowRow(i)})
			return err
		})
	}
}

// storageRungs time a table of the workload's schema, on its own.
func (l *ladderRun) storageRungs() {
	if l.err != nil {
		return
	}
	p := l.p
	rel := l.st.Catalog().Relation(p.table)
	if rel == nil {
		l.err = fmt.Errorf("ladder: no relation %q", p.table)
		return
	}
	rows := max(l.o.scaled(20_000), 2000)
	tbl := storage.NewTable(rel.Schema)
	ids := make([]storage.RowID, 0, rows)
	for i := 0; i < rows; i++ {
		id, err := tbl.Insert(p.fresh(i), nil)
		if err != nil {
			l.err = fmt.Errorf("storage rung load: %w", err)
			return
		}
		ids = append(ids, id)
	}
	seq := tbl.Clock().Publish()
	pick := func(i int) int { return i * 7919 % rows }
	l.measure("storage.insert_ns", 1, l.perFast, func(i int) error {
		_, err := tbl.Insert(p.fresh(rows+i), nil)
		return err
	})
	l.measure("storage.get_ns", 1, l.perFast, func(i int) error {
		if _, ok := tbl.Get(ids[pick(i)]); !ok {
			return fmt.Errorf("row %d missing", pick(i))
		}
		return nil
	})
	l.measure("storage.update_ns", 1, l.perFast, func(i int) error {
		return tbl.Update(ids[pick(i)], p.fresh(pick(i)), nil)
	})
	pin := tbl.Clock().AcquireSnapshot()
	defer tbl.Clock().ReleaseSnapshot(pin)
	l.measure("storage.snapshot_get_ns", 1, l.perFast, func(i int) error {
		if _, ok := tbl.SnapshotGet(ids[pick(i)], seq); !ok {
			return fmt.Errorf("row %d not visible at seq %d", pick(i), seq)
		}
		return nil
	})
	// fresh(i)'s keys are consecutive, so these bounds hold rangeRows rows.
	const rangeRows = 1000
	lo, hi := p.fresh(0)[:1], p.fresh(rangeRows - 1)[:1]
	l.measure("storage.snapshot_range_ns_row", rangeRows, max(l.per/10, 2), func(int) error {
		n := 0
		err := tbl.SnapshotRange(tbl.PrimaryIndex(), lo, hi, seq, func(_, _ types.Row) bool {
			n++
			return true
		})
		if err == nil && n != rangeRows {
			err = fmt.Errorf("range saw %d rows", n)
		}
		return err
	})
}

// walRungs time logs of their own, fed the workload's record.
func (l *ladderRun) walRungs(dir string) {
	if l.err != nil {
		return
	}
	payload := wal.EncodeRecord(l.p.record)
	buffered, err := wal.OpenLogOpts(filepath.Join(dir, "append.log"), 0, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		l.err = err
		return
	}
	defer buffered.Close()
	l.measure("wal.append_ns", 1, l.perFast, func(int) error {
		_, err := buffered.Append(payload)
		return err
	})
	// One fsync per default group-commit batch of appends.
	l.measure("wal.sync_us", 1e3, max(l.per/10, 2), func(int) error {
		for j := 0; j < wal.DefaultGroupCommitMaxBatch; j++ {
			if _, err := buffered.Append(payload); err != nil {
				return err
			}
		}
		return buffered.SyncNow()
	})
	grouped, err := wal.OpenLogOpts(filepath.Join(dir, "group.log"), 0, wal.Options{Policy: wal.SyncGroupCommit})
	if err != nil {
		l.err = err
		return
	}
	defer grouped.Close()
	l.measure("wal.group_wait_us", 1e3, max(l.per/10, 2), func(int) error {
		_, ack, err := grouped.AppendAsync(payload)
		if err != nil {
			return err
		}
		return <-ack
	})
}

// codecRungs time the SQL parser and the row codec; it returns one encoded
// row of the workload's table.
func (l *ladderRun) codecRungs() []byte {
	stmts := l.p.statements
	l.measure("sql.parse_ns", 1, l.perFast, func(i int) error {
		_, err := sql.Parse(stmts[i%len(stmts)])
		return err
	})
	l.measure("sql.parse_cached_ns", 1, l.perFast, func(i int) error {
		_, err := sql.ParseCached(stmts[i%len(stmts)])
		return err
	})
	row := l.p.fresh(0)
	buf := types.EncodeRow(nil, row)
	l.measure("types.encode_row_ns", 1, l.perFast, func(int) error {
		buf = types.EncodeRow(buf[:0], row)
		return nil
	})
	l.measure("types.decode_row_ns", 1, l.perFast, func(int) error {
		_, _, err := types.DecodeRow(buf)
		return err
	})
	return buf
}

// coldstoreRungs time a page store of its own holding tuples four times its
// default buffer pool, so reads miss as well as hit.
func (l *ladderRun) coldstoreRungs(dir string, tuple []byte) {
	if l.err != nil {
		return
	}
	cs, err := coldstore.Open(filepath.Join(dir, "probe.pages"), coldstore.Options{})
	if err != nil {
		l.err = err
		return
	}
	defer cs.Close()
	tuples := max(l.o.scaled(20_000), 100)
	refs := make([]coldstore.Ref, 0, tuples)
	l.measure("coldstore.write_us", 1e3, tuples/ladderBatches, func(int) error {
		ref, err := cs.Put(tuple)
		refs = append(refs, ref)
		return err
	})
	var scratch []byte
	l.measure("coldstore.read_us", 1e3, l.perFast, func(i int) error {
		var err error
		scratch, err = cs.Read(refs[i*7919%len(refs)], scratch[:0])
		return err
	})
}

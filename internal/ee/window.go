package ee

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/types"
)

// admitToWindow runs a batch of stream tuples through a window's slide
// logic inside the current transaction. All mutations — backing-table
// inserts/evictions and the slide bookkeeping — are undo-logged, so an
// abort restores the exact window state ("partial window state may carry
// over from one TE to the next" and must survive aborts untouched, §2).
//
// Tuple windows (ROWS n SLIDE s): the window fills to n tuples, then
// advances only in slide-sized steps — arriving tuples stage until s have
// accumulated, at which point the s oldest tuples expire and the staged
// ones enter. Time windows (RANGE d SLIDE s over event-time column t):
// the watermark is the maximum observed event time quantized to s; the
// window holds tuples with t > watermark − d. EE triggers on the window
// fire after every change with INSERTED / EXPIRED bound to the tuples that
// entered / left and NEW to the post-change contents (fireTriggers). rows
// must be the window's to keep: stored rows of the source stream, or copies.
func (e *Engine) admitToWindow(ctx *ExecCtx, rel *catalog.Relation, rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	win := rel.Win
	if win == nil {
		return fmt.Errorf("ee: relation %q is not a window", rel.Name)
	}
	if rel.Window.Rows {
		return e.admitTupleWindow(ctx, rel, rows)
	}
	return e.admitTimeWindow(ctx, rel, rows)
}

// saveWindowMeta pushes an undo closure restoring the slide bookkeeping.
func saveWindowMeta(ctx *ExecCtx, win *catalog.WindowState) {
	if ctx.Undo == nil {
		return
	}
	staged := append([]types.Row(nil), win.Staged...)
	admitted, watermark, slides := win.Admitted, win.Watermark, win.SlideCount
	ctx.Undo.PushFunc(func() {
		win.Staged = staged
		win.Admitted = admitted
		win.Watermark = watermark
		win.SlideCount = slides
	})
}

func (e *Engine) admitTupleWindow(ctx *ExecCtx, rel *catalog.Relation, rows []types.Row) error {
	win := rel.Win
	size, slide := rel.Window.Size, rel.Window.Slide
	saveWindowMeta(ctx, win)
	mem := &ctx.mem
	var entered, evicted []types.Row
	for _, r := range rows {
		win.Admitted++
		if int64(rel.Table.Count()) < size && len(win.Staged) == 0 {
			// Filling phase: tuples enter directly until the window is full.
			if _, err := rel.Table.Insert(r, ctx.Undo); err != nil {
				return fmt.Errorf("ee: window %q: %w", rel.Name, err)
			}
			entered = mem.rows.push(entered, r)
			continue
		}
		win.Staged = append(win.Staged, r)
		if int64(len(win.Staged)) < slide {
			continue
		}
		// Slide: evict the oldest `slide` tuples, admit the staged batch.
		var err error
		if evicted, err = e.evictOldest(ctx, rel, int(slide), evicted); err != nil {
			return err
		}
		for _, sr := range win.Staged {
			if _, err := rel.Table.Insert(sr, ctx.Undo); err != nil {
				return fmt.Errorf("ee: window %q: %w", rel.Name, err)
			}
			entered = mem.rows.push(entered, sr)
		}
		win.Staged = win.Staged[:0]
		win.SlideCount++
		e.met.Add(metrics.WindowSlides, 1)
	}
	if len(entered) > 0 || len(evicted) > 0 {
		return e.fireTriggers(ctx, rel, entered, evicted)
	}
	return nil
}

// evictOldest deletes the window's n oldest tuples and adds them to evicted.
func (e *Engine) evictOldest(ctx *ExecCtx, rel *catalog.Relation, n int, evicted []types.Row) ([]types.Row, error) {
	mem := &ctx.mem
	ids := mem.ids.take(n)[:0]
	rel.Table.Scan(func(id storage.RowID, r types.Row) bool {
		ids = append(ids, id)
		evicted = mem.rows.push(evicted, r)
		return len(ids) < n
	})
	for _, id := range ids {
		if err := rel.Table.Delete(id, ctx.Undo); err != nil {
			return nil, fmt.Errorf("ee: window %q eviction: %w", rel.Name, err)
		}
	}
	return evicted, nil
}

func (e *Engine) admitTimeWindow(ctx *ExecCtx, rel *catalog.Relation, rows []types.Row) error {
	win := rel.Win
	size, slide, tcol := rel.Window.Size, rel.Window.Slide, rel.Window.TimeCol
	saveWindowMeta(ctx, win)
	maxTS := win.Watermark
	mem := &ctx.mem
	var entered []types.Row
	for _, r := range rows {
		tv := r[tcol]
		if tv.IsNull() {
			return fmt.Errorf("ee: window %q: NULL event time", rel.Name)
		}
		ts := tv.Int()
		if win.Watermark > 0 && ts <= win.Watermark-size {
			// Tuple is already outside the window: a late arrival. Drop it;
			// it could never be observed by any query.
			continue
		}
		if _, err := rel.Table.Insert(r, ctx.Undo); err != nil {
			return fmt.Errorf("ee: window %q: %w", rel.Name, err)
		}
		entered = mem.rows.push(entered, r)
		if ts > maxTS {
			maxTS = ts
		}
	}
	// Quantize the watermark to slide boundaries so the window advances in
	// slide-sized jumps.
	var evictedRows []types.Row
	newWM := (maxTS / slide) * slide
	if newWM > win.Watermark {
		win.Watermark = newWM
		cutoff := newWM - size
		var evict []storage.RowID
		rel.Table.Scan(func(id storage.RowID, r types.Row) bool {
			if r[tcol].Int() <= cutoff {
				evict = mem.ids.push(evict, id)
				evictedRows = mem.rows.push(evictedRows, r)
			}
			return true
		})
		for _, id := range evict {
			if err := rel.Table.Delete(id, ctx.Undo); err != nil {
				return fmt.Errorf("ee: window %q eviction: %w", rel.Name, err)
			}
		}
		win.SlideCount++
		e.met.Add(metrics.WindowSlides, 1)
	}
	if len(entered) > 0 || len(evictedRows) > 0 {
		return e.fireTriggers(ctx, rel, entered, evictedRows)
	}
	return nil
}

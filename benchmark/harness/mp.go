package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/benchmark/sut"
	"repro/internal/catalog"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wire"
)

// mp drives mp-pair: every write is one statement inserting two rows that
// hash to different partitions, so it commits through the 2PC coordinator;
// every 25th op on each of the two connections is a fan-out COUNT(*),
// which must be even (a pair is visible on both partitions or on neither).
//
// The table is emptied before each segment (a coordinated broadcast
// DELETE, untimed) and every segment inserts the same ids: COUNT(*) scans,
// so an ever-growing table would make each segment dearer than the last,
// and ever-new keys would keep growing the indexes. Each segment must end
// at exactly two rows per acked insert.
type mp struct {
	spec  sut.Spec
	slots *catalog.SlotTable
	// next is the segment's next unused id per connection.
	next [mpConns]int64
	// acked counts the current segment's acked pair inserts.
	acked int64
	// known holds ids the current segment inserted, for the ladder.
	known []int64
}

const (
	mpConns      = 2
	mpCountEvery = 25
)

func newMP(spec sut.Spec, _ int64) *mp {
	// The op stream is the same for every seed: ids are consumed in
	// order and the mix is fixed, so there is nothing to draw.
	w := &mp{spec: spec, slots: catalog.NewSlotTable(spec.Partitions())}
	w.rewind()
	return w
}

// rewind returns each connection to the first id of its range.
func (w *mp) rewind() {
	for c := range w.next {
		w.next[c] = int64(c+1) << 40
	}
}

func (w *mp) conns() int { return mpConns }

func (w *mp) load([]Conn) error { return nil }

// pair returns the connection's next two ids owned by different partitions.
func (w *mp) pair(c int) (a, b int64) {
	a = w.next[c]
	b = a + 1
	for w.slots.Partition(types.NewInt(b)) == w.slots.Partition(types.NewInt(a)) {
		b++
	}
	w.next[c] = b + 1
	return a, b
}

func (w *mp) prepare(cs []Conn, seg, ops int) (func([]*recorder) (int, error), error) {
	if err := w.checkCount(cs[0]); err != nil { // the previous segment's result
		return nil, err
	}
	if _, err := cs[0].Exec(sut.PairClear); err != nil {
		return nil, fmt.Errorf("clearing pairs: %w", err)
	}
	w.acked = 0
	w.known = w.known[:0]
	w.rewind()
	perConn := ops / mpConns
	pairs := make([][][2]int64, mpConns)
	for c := range pairs {
		pairs[c] = make([][2]int64, perConn)
		for i := range pairs[c] {
			a, b := w.pair(c)
			pairs[c][i] = [2]int64{a, b}
			if c == 0 && len(w.known) < 512 && i%mpCountEvery != mpCountEvery-1 {
				w.known = append(w.known, a)
			}
		}
	}
	return func(recs []*recorder) (int, error) {
		var wg sync.WaitGroup
		failed := make([]int, mpConns)
		acked := make([]int64, mpConns)
		for c := 0; c < mpConns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rec := recs[c]
				for i, p := range pairs[c] {
					t0 := time.Now()
					if i%mpCountEvery == mpCountEvery-1 {
						resp, err := cs[c].Query(sut.PairCount)
						d := float64(time.Since(t0))
						rec.all = append(rec.all, d)
						rec.read = append(rec.read, d)
						if err != nil || len(resp.Rows) != 1 || resp.Rows[0][0].Int()%2 != 0 {
							failed[c]++
						}
						continue
					}
					a, b := types.NewInt(p[0]), types.NewInt(p[1])
					_, err := cs[c].Exec(sut.PairInsert, a, b, b, a)
					d := float64(time.Since(t0))
					rec.all = append(rec.all, d)
					rec.write = append(rec.write, d)
					rec.primary = append(rec.primary, d)
					if err != nil {
						failed[c]++
					} else {
						acked[c]++
					}
				}
			}(c)
		}
		wg.Wait()
		w.acked = acked[0] + acked[1]
		return failed[0] + failed[1], nil
	}, nil
}

func (w *mp) sample() []*wire.Request {
	reqs := make([]*wire.Request, 250)
	for i := range reqs {
		if i%mpCountEvery == mpCountEvery-1 {
			reqs[i] = &wire.Request{Kind: wire.MsgQuery, Target: sut.PairCount}
			continue
		}
		a, b := w.pair(0)
		reqs[i] = &wire.Request{Kind: wire.MsgExec, Target: sut.PairInsert,
			Params: types.Row{types.NewInt(a), types.NewInt(b), types.NewInt(b), types.NewInt(a)}}
	}
	return reqs
}

func (w *mp) profile() profile {
	ids := w.known
	return profile{
		primary:  "Exec:mp",
		table:    "pairs",
		existing: func(i int) types.Value { return types.NewInt(ids[i%len(ids)]) },
		fresh: func(i int) types.Row {
			return types.Row{types.NewInt(3<<40 + int64(i)), types.NewInt(int64(i)), types.NewInt(1)}
		},
		pointSQL:     "SELECT id, peer, n FROM pairs WHERE id = ?",
		insertSQL:    "INSERT INTO pairs VALUES (?, ?, ?)",
		updateSQL:    "UPDATE pairs SET n = n + 1 WHERE id = ?",
		updateParams: func(k types.Value) []types.Value { return []types.Value{k} },
		scanSQL:      sut.PairCount,
		scanRows:     int(w.acked), // partition 0 holds one row of each pair
		record: &pe.LogRecord{Kind: pe.RecCall, Proc: "pair_insert",
			Params: []types.Value{types.NewInt(1 << 40), types.NewInt(1<<40 + 1)}},
		statements: []string{sut.PairInsert, sut.PairCount, sut.PairClear},
	}
}

func (w *mp) checkCount(c Conn) error {
	resp, err := c.Query(sut.PairCount)
	if err != nil {
		return err
	}
	if got := resp.Rows[0][0].Int(); got != 2*w.acked {
		return fmt.Errorf("mp-pair: %d rows after %d acked pair inserts, want %d", got, w.acked, 2*w.acked)
	}
	return nil
}

// check verifies the last segment's count and that every row's peer is
// there too, pointing back at it.
func (w *mp) check(c Conn) error {
	if err := w.checkCount(c); err != nil {
		return err
	}
	resp, err := c.Query("SELECT id, peer FROM pairs")
	if err != nil {
		return err
	}
	peer := make(map[int64]int64, len(resp.Rows))
	for _, r := range resp.Rows {
		peer[r[0].Int()] = r[1].Int()
	}
	for id, p := range peer {
		if back, ok := peer[p]; !ok || back != id {
			return fmt.Errorf("mp-pair: row %d names peer %d, whose row is missing or names %d", id, p, back)
		}
	}
	return nil
}

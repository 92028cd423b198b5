package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/benchmark/sut"
	"repro/internal/catalog"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wire"
)

// kv drives kv-mixed and kv-cold: the two differ only in the SUT's
// MemoryBudget, never in what the harness sends.
//
// Two closed-loop connections; 90 % of accesses go to the first 10 % of
// keys; per connection 70 % point Query, 10 % 50-row BETWEEN range, 5 %
// grp aggregate, 15 % durable kv_put. Connection c writes only keys of
// parity c, so every key has one writer and the model below is exact.
type kv struct {
	spec sut.Spec
	seed int64
	// puts[k] counts acked kv_put calls on k; last[k] is the tag of the
	// latest one (0 = still the loaded value). Each key has one writing
	// connection, so the two goroutines never touch the same element.
	puts []int64
	last []int64
}

const (
	kvConns     = 2
	kvRangeRows = 50
	kvLoadBatch = 200
)

type kvOpKind uint8

const (
	kvPoint kvOpKind = iota
	kvRange
	kvAgg
	kvPut
)

type kvOp struct {
	kind kvOpKind
	key  int64
}

func newKV(spec sut.Spec, seed int64) *kv {
	rows := spec.Rows()
	return &kv{spec: spec, seed: seed, puts: make([]int64, rows), last: make([]int64, rows)}
}

func (w *kv) conns() int { return kvConns }

// load sends the keys through kv_load, a batch per call, each batch owned
// by one partition (the call routes on its first parameter).
func (w *kv) load(cs []Conn) error {
	slots := catalog.NewSlotTable(w.spec.Partitions())
	// Scaled down, batches shrink too: the evictor works at commit rhythm,
	// and a handful of commits would never wake it.
	batch := max(kvLoadBatch/max(w.spec.Scale, 1), 8)
	batches := make([][]types.Value, w.spec.Partitions())
	flush := func(p int) error {
		if len(batches[p]) == 0 {
			return nil
		}
		params := append([]types.Value{batches[p][0]}, batches[p]...)
		batches[p] = batches[p][:0]
		_, err := cs[0].Call("kv_load", params...)
		return err
	}
	for k := 0; k < w.spec.Rows(); k++ {
		v := types.NewInt(int64(k))
		p := slots.Partition(v)
		batches[p] = append(batches[p], v)
		if len(batches[p]) == batch {
			if err := flush(p); err != nil {
				return err
			}
		}
	}
	for p := range batches {
		if err := flush(p); err != nil {
			return err
		}
	}
	return nil
}

// genOps draws one connection's op list for a segment from the seed alone.
func (w *kv) genOps(seg, conn, n int) []kvOp {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(seg)*64 + int64(conn)))
	rows := int64(w.spec.Rows())
	hot := rows / 10
	ops := make([]kvOp, n)
	for i := range ops {
		k := rng.Int63n(hot)
		if rng.Intn(10) == 9 {
			k = rng.Int63n(rows)
		}
		switch r := rng.Intn(100); {
		case r < 70:
			ops[i] = kvOp{kvPoint, k}
		case r < 80:
			if k > rows-kvRangeRows {
				k = rows - kvRangeRows
			}
			ops[i] = kvOp{kvRange, k}
		case r < 85:
			ops[i] = kvOp{kvAgg, k % int64(w.spec.Groups())}
		default:
			ops[i] = kvOp{kvPut, k - k%2 + int64(conn)} // rows is even: stays in range
		}
	}
	return ops
}

// putValue is the VARCHAR a put with this tag writes: the tag, padded to
// the loaded width so the row's size never changes.
func putValue(tag int64) string {
	s := fmt.Sprintf("%d:", tag)
	return s + strings.Repeat("y", sut.KVPad-len(s))
}

func (w *kv) prepare(cs []Conn, seg, ops int) (func([]*recorder) (int, error), error) {
	perConn := ops / kvConns
	lists := make([][]kvOp, kvConns)
	for c := range lists {
		lists[c] = w.genOps(seg, c, perConn)
	}
	return func(recs []*recorder) (int, error) {
		var wg sync.WaitGroup
		failed := make([]int, kvConns)
		for c := 0; c < kvConns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				failed[c] = w.runOps(cs[c], recs[c], lists[c], int64(seg+1)<<32|int64(c)<<31)
			}(c)
		}
		wg.Wait()
		return failed[0] + failed[1], nil
	}, nil
}

// runOps is one connection's closed loop. Every response is checked on the
// spot; a wrong or failed one counts as failed and the loop goes on.
func (w *kv) runOps(c Conn, rec *recorder, ops []kvOp, tagBase int64) (failed int) {
	groupRows := int64(w.spec.Rows() / w.spec.Groups())
	for i, op := range ops {
		t0 := time.Now()
		ok := false
		switch op.kind {
		case kvPoint:
			resp, err := c.Query(sut.KVPoint, types.NewInt(op.key))
			ok = err == nil && len(resp.Rows) == 1 && resp.Rows[0][0].Int() == op.key
		case kvRange:
			resp, err := c.Query(sut.KVRange, types.NewInt(op.key), types.NewInt(op.key+kvRangeRows-1))
			ok = err == nil && len(resp.Rows) == kvRangeRows &&
				resp.Rows[0][0].Int() == op.key && resp.Rows[kvRangeRows-1][0].Int() == op.key+kvRangeRows-1
		case kvAgg:
			resp, err := c.Query(sut.KVAgg, types.NewInt(op.key))
			ok = err == nil && len(resp.Rows) == 1 && resp.Rows[0][0].Int() == groupRows
		case kvPut:
			tag := tagBase + int64(i) + 1
			_, err := c.Call("kv_put", types.NewInt(op.key), types.NewString(putValue(tag)))
			if ok = err == nil; ok {
				w.puts[op.key]++
				w.last[op.key] = tag
			}
		}
		d := float64(time.Since(t0))
		rec.all = append(rec.all, d)
		switch op.kind {
		case kvPut:
			rec.write = append(rec.write, d)
		case kvPoint:
			rec.primary = append(rec.primary, d)
			fallthrough
		default:
			rec.read = append(rec.read, d)
		}
		if !ok {
			failed++
		}
	}
	return failed
}

func (w *kv) request(op kvOp, tag int64) *wire.Request {
	switch op.kind {
	case kvPoint:
		return &wire.Request{Kind: wire.MsgQuery, Target: sut.KVPoint, Params: types.Row{types.NewInt(op.key)}}
	case kvRange:
		return &wire.Request{Kind: wire.MsgQuery, Target: sut.KVRange,
			Params: types.Row{types.NewInt(op.key), types.NewInt(op.key + kvRangeRows - 1)}}
	case kvAgg:
		return &wire.Request{Kind: wire.MsgQuery, Target: sut.KVAgg, Params: types.Row{types.NewInt(op.key)}}
	}
	return &wire.Request{Kind: wire.MsgCall, Target: "kv_put",
		Params: types.Row{types.NewInt(op.key), types.NewString(putValue(tag))}}
}

func (w *kv) sample() []*wire.Request {
	ops := w.genOps(1<<20, 0, 256)
	reqs := make([]*wire.Request, len(ops))
	for i, op := range ops {
		reqs[i] = w.request(op, int64(i+1))
	}
	return reqs
}

func (w *kv) profile() profile {
	rows := int64(w.spec.Rows())
	v := sut.KVLoadValue()
	// Keys are drawn with the workload's own skew: on kv-cold a rung that
	// read uniformly would time the cold store, not the workload.
	rng := rand.New(rand.NewSource(w.seed))
	return profile{
		primary: "Query:point",
		table:   "kv",
		existing: func(int) types.Value {
			if rng.Intn(10) == 9 {
				return types.NewInt(rng.Int63n(rows))
			}
			return types.NewInt(rng.Int63n(rows / 10))
		},
		fresh: func(i int) types.Row {
			return types.Row{types.NewInt(rows + int64(i)), types.NewInt(int64(i % w.spec.Groups())), types.NewInt(0), v}
		},
		pointSQL:     sut.KVPoint,
		insertSQL:    sut.KVInsert,
		updateSQL:    sut.KVUpdate,
		updateParams: func(k types.Value) []types.Value { return []types.Value{v, k} },
		scanSQL:      sut.KVRange,
		scanParams: func(i int) []types.Value {
			lo := int64(i) * 7919 % (rows - kvRangeRows)
			return []types.Value{types.NewInt(lo), types.NewInt(lo + kvRangeRows - 1)}
		},
		scanRows: kvRangeRows,
		callProc: "kv_put",
		callParams: func(i int) []types.Value {
			return []types.Value{types.NewInt(int64(i) * 7919 % rows), types.NewString(putValue(int64(i)))}
		},
		record: &pe.LogRecord{Kind: pe.RecCall, Proc: "kv_put",
			Params: []types.Value{types.NewInt(rows / 2), types.NewString(putValue(1))}},
		statements: []string{sut.KVPoint, sut.KVRange, sut.KVAgg, sut.KVInsert, sut.KVUpdate},
	}
}

// check reads the whole table back and compares it with the model: every
// acked put is there (n counts them, v is the last one's value), nothing
// else changed, no row is missing or extra.
func (w *kv) check(c Conn) error {
	rows := int64(w.spec.Rows())
	var total int64
	for _, n := range w.puts {
		total += n
	}
	resp, err := c.Query("SELECT COUNT(*), SUM(n) FROM kv")
	if err != nil {
		return err
	}
	if got, sum := resp.Rows[0][0].Int(), resp.Rows[0][1].Int(); got != rows || sum != total {
		return fmt.Errorf("kv: table has %d rows with SUM(n) %d, model has %d rows and %d acked puts", got, sum, rows, total)
	}
	loaded := sut.KVLoadValue().Str()
	const chunk = 1000
	for lo := int64(0); lo < rows; lo += chunk {
		hi := min(lo+chunk, rows) - 1
		resp, err := c.Query(sut.KVRange, types.NewInt(lo), types.NewInt(hi))
		if err != nil {
			return err
		}
		if int64(len(resp.Rows)) != hi-lo+1 {
			return fmt.Errorf("kv: keys %d..%d returned %d rows", lo, hi, len(resp.Rows))
		}
		for i, r := range resp.Rows {
			k := lo + int64(i)
			want := loaded
			if w.last[k] != 0 {
				want = putValue(w.last[k])
			}
			if r[0].Int() != k || r[1].Int() != w.puts[k] || r[2].Str() != want {
				return fmt.Errorf("kv: key %d is (k=%d n=%d v=%.12q), model says n=%d v=%.12q",
					k, r[0].Int(), r[1].Int(), r[2].Str(), w.puts[k], want)
			}
		}
	}
	return nil
}

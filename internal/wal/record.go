package wal

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/pe"
	"repro/internal/types"
)

// EncodeRecord serializes a partition-engine log record:
//
//	kind u8 | proc str | batchID uvarint | inputStream str | params row | batch rows
//
// The 2PC kinds (RecPrepare, RecDecide) append their own fields after the
// common prefix — older kinds keep the exact layout earlier versions
// wrote, so pre-2PC logs recover unchanged:
//
//	RecPrepare: mpTxnID uvarint | nops uvarint | ops (each: form u8,
//	            form 0 = sql str + params row, form 1 = table str + rows)
//	RecDecide:  mpTxnID uvarint | commit u8
//
// A slot migration's commit record appends:
//
//	RecSlotCommit: slot uvarint | from uvarint | to uvarint | mpTxnID uvarint
//
// The dataflow pause kinds (RecPauseGraph / RecResumeGraph, logged under
// partition 0) carry the graph name in the proc field of the common prefix and
// append nothing. So does RecAborted (LogAllTEs: a triggered execution that
// aborted live), whose common prefix is the RecTriggered record's its
// commit would have written.
func EncodeRecord(rec *pe.LogRecord) []byte { return AppendRecord(make([]byte, 0, 64), rec) }

// AppendRecord appends rec's EncodeRecord bytes to buf.
func AppendRecord(buf []byte, rec *pe.LogRecord) []byte {
	buf = append(buf, byte(rec.Kind))
	buf = appendString(buf, rec.Proc)
	buf = binary.AppendUvarint(buf, rec.BatchID)
	buf = appendString(buf, rec.InputStream)
	buf = types.EncodeRow(buf, types.Row(rec.Params))
	buf = types.EncodeRows(buf, rec.Batch)
	switch rec.Kind {
	case pe.RecPrepare:
		buf = binary.AppendUvarint(buf, rec.MPTxnID)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Ops)))
		for _, op := range rec.Ops {
			if op.Table != "" {
				buf = append(buf, 1)
				buf = appendString(buf, op.Table)
				buf = types.EncodeRows(buf, op.Rows)
			} else {
				buf = append(buf, 0)
				buf = appendString(buf, op.SQL)
				buf = types.EncodeRow(buf, types.Row(op.Params))
			}
		}
	case pe.RecDecide:
		buf = binary.AppendUvarint(buf, rec.MPTxnID)
		if rec.Commit {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case pe.RecSlotCommit:
		buf = binary.AppendUvarint(buf, uint64(rec.Slot))
		buf = binary.AppendUvarint(buf, uint64(rec.FromPart))
		buf = binary.AppendUvarint(buf, uint64(rec.ToPart))
		buf = binary.AppendUvarint(buf, rec.MPTxnID)
	}
	return buf
}

// DecodeRecord parses a payload written by EncodeRecord.
func DecodeRecord(payload []byte) (*pe.LogRecord, error) {
	if len(payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	rec := &pe.LogRecord{Kind: pe.RecordKind(payload[0])}
	buf := payload[1:]
	var err error
	if rec.Proc, buf, err = readString(buf); err != nil {
		return nil, fmt.Errorf("wal: record proc: %w", err)
	}
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, io.ErrUnexpectedEOF
	}
	rec.BatchID = id
	buf = buf[n:]
	if rec.InputStream, buf, err = readString(buf); err != nil {
		return nil, fmt.Errorf("wal: record stream: %w", err)
	}
	params, buf, err := types.DecodeRow(buf)
	if err != nil {
		return nil, fmt.Errorf("wal: record params: %w", err)
	}
	rec.Params = []types.Value(params)
	if rec.Batch, buf, err = types.DecodeRows(buf); err != nil {
		return nil, fmt.Errorf("wal: record batch: %w", err)
	}
	if len(rec.Params) == 0 {
		rec.Params = nil
	}
	if len(rec.Batch) == 0 {
		rec.Batch = nil
	}
	switch rec.Kind {
	case pe.RecPrepare:
		id, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, io.ErrUnexpectedEOF
		}
		rec.MPTxnID = id
		buf = buf[n:]
		nops, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, io.ErrUnexpectedEOF
		}
		buf = buf[n:]
		for i := uint64(0); i < nops; i++ {
			if len(buf) < 1 {
				return nil, io.ErrUnexpectedEOF
			}
			form := buf[0]
			buf = buf[1:]
			var op pe.LoggedOp
			switch form {
			case 1:
				if op.Table, buf, err = readString(buf); err != nil {
					return nil, fmt.Errorf("wal: prepare op table: %w", err)
				}
				if op.Rows, buf, err = types.DecodeRows(buf); err != nil {
					return nil, fmt.Errorf("wal: prepare op rows: %w", err)
				}
			case 0:
				if op.SQL, buf, err = readString(buf); err != nil {
					return nil, fmt.Errorf("wal: prepare op sql: %w", err)
				}
				var prow types.Row
				if prow, buf, err = types.DecodeRow(buf); err != nil {
					return nil, fmt.Errorf("wal: prepare op params: %w", err)
				}
				if len(prow) > 0 {
					op.Params = []types.Value(prow)
				}
			default:
				return nil, fmt.Errorf("wal: unknown prepare op form %d", form)
			}
			rec.Ops = append(rec.Ops, op)
		}
	case pe.RecDecide:
		id, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, io.ErrUnexpectedEOF
		}
		rec.MPTxnID = id
		buf = buf[n:]
		if len(buf) < 1 {
			return nil, io.ErrUnexpectedEOF
		}
		rec.Commit = buf[0] == 1
	case pe.RecSlotCommit:
		vals := make([]uint64, 4)
		for i := range vals {
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, io.ErrUnexpectedEOF
			}
			vals[i] = v
			buf = buf[n:]
		}
		rec.Slot = int(vals[0])
		rec.FromPart = int(vals[1])
		rec.ToPart = int(vals[2])
		rec.MPTxnID = vals[3]
	}
	return rec, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < l {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(buf[n : n+int(l)]), buf[n+int(l):], nil
}

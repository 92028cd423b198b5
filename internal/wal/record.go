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
// A coordinated commit appends its legs after the common prefix, and a
// slot move's slot and partitions after them:
//
//	RecCoordCommit: mpTxnID uvarint | nlegs uvarint | legs (each: part
//	                uvarint | ops) | move u8 [| slot uvarint | from uvarint
//	                | to uvarint]
//	ops:            nops uvarint | each op: form u8, form 0 = sql str +
//	                params row, form 1 = table str + rows
//
// The two-phase kinds earlier versions wrote keep their layout, so their
// logs recover unchanged:
//
//	RecPrepare:    mpTxnID uvarint | ops
//	RecDecide:     mpTxnID uvarint | commit u8
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
	case pe.RecCoordCommit:
		buf = binary.AppendUvarint(buf, rec.MPTxnID)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Legs)))
		for _, leg := range rec.Legs {
			buf = binary.AppendUvarint(buf, uint64(leg.Part))
			buf = appendOps(buf, leg.Ops)
		}
		if !rec.Move {
			return append(buf, 0)
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(rec.Slot))
		buf = binary.AppendUvarint(buf, uint64(rec.FromPart))
		buf = binary.AppendUvarint(buf, uint64(rec.ToPart))
	case pe.RecPrepare:
		buf = binary.AppendUvarint(buf, rec.MPTxnID)
		buf = appendOps(buf, rec.Ops)
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

// appendOps appends a leg's ops.
func appendOps(buf []byte, ops []pe.LoggedOp) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
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
	case pe.RecCoordCommit:
		var nlegs uint64
		if rec.MPTxnID, buf, err = readUvarint(buf); err == nil {
			nlegs, buf, err = readUvarint(buf)
		}
		for i := uint64(0); err == nil && i < nlegs; i++ {
			var part uint64
			var leg pe.Leg
			if part, buf, err = readUvarint(buf); err == nil {
				leg.Part = int(part)
				leg.Ops, buf, err = readOps(buf)
				rec.Legs = append(rec.Legs, leg)
			}
		}
		if err != nil {
			return nil, err
		}
		if len(buf) < 1 {
			return nil, io.ErrUnexpectedEOF
		}
		if rec.Move = buf[0] == 1; rec.Move {
			vals, err := readUvarints(buf[1:], 3)
			if err != nil {
				return nil, err
			}
			rec.Slot, rec.FromPart, rec.ToPart = int(vals[0]), int(vals[1]), int(vals[2])
		}
	case pe.RecPrepare:
		if rec.MPTxnID, buf, err = readUvarint(buf); err == nil {
			rec.Ops, _, err = readOps(buf)
		}
		if err != nil {
			return nil, err
		}
	case pe.RecDecide:
		if rec.MPTxnID, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if len(buf) < 1 {
			return nil, io.ErrUnexpectedEOF
		}
		rec.Commit = buf[0] == 1
	case pe.RecSlotCommit:
		vals, err := readUvarints(buf, 4)
		if err != nil {
			return nil, err
		}
		rec.Slot, rec.FromPart, rec.ToPart, rec.MPTxnID = int(vals[0]), int(vals[1]), int(vals[2]), vals[3]
	}
	return rec, nil
}

// readOps parses a leg's ops (appendOps).
func readOps(buf []byte) ([]pe.LoggedOp, []byte, error) {
	nops, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	var ops []pe.LoggedOp
	for i := uint64(0); i < nops; i++ {
		if len(buf) < 1 {
			return nil, nil, io.ErrUnexpectedEOF
		}
		form := buf[0]
		buf = buf[1:]
		var op pe.LoggedOp
		switch form {
		case 1:
			if op.Table, buf, err = readString(buf); err != nil {
				return nil, nil, fmt.Errorf("wal: op table: %w", err)
			}
			if op.Rows, buf, err = types.DecodeRows(buf); err != nil {
				return nil, nil, fmt.Errorf("wal: op rows: %w", err)
			}
		case 0:
			if op.SQL, buf, err = readString(buf); err != nil {
				return nil, nil, fmt.Errorf("wal: op sql: %w", err)
			}
			var prow types.Row
			if prow, buf, err = types.DecodeRow(buf); err != nil {
				return nil, nil, fmt.Errorf("wal: op params: %w", err)
			}
			if len(prow) > 0 {
				op.Params = []types.Value(prow)
			}
		default:
			return nil, nil, fmt.Errorf("wal: unknown op form %d", form)
		}
		ops = append(ops, op)
	}
	return ops, buf, nil
}

// readUvarint parses one uvarint.
func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return v, buf[n:], nil
}

// readUvarints parses n uvarints.
func readUvarints(buf []byte, n int) ([]uint64, error) {
	vals := make([]uint64, n)
	for i := range vals {
		var err error
		if vals[i], buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
	}
	return vals, nil
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

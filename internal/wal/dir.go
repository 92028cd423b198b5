package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is a durable file as the code that writes it sees it: bytes go in,
// Sync makes them durable. *os.File satisfies it.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the file operations a Dir writes through. OS is the one production
// implementation; tests substitute a recording one to hold, fail and count
// syncs and to build the image a crash would leave.
type FS interface {
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir makes the directory's entries (creates and renames) durable.
	SyncDir(path string) error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// Dir is a durability directory. Every durable write to a file in it goes
// through one of its doors, which hold the ordering rules:
//
//   - OpenLog opens an append-only log segment; a segment it creates has
//     its directory entry synced before the log takes a record.
//   - Replace swaps in a whole file: the new bytes are written to a temp
//     file and fsynced, renamed over the old name, and the directory is
//     synced, so a crash leaves the old file or the new one, never a mix.
//   - Remove deletes a file, then syncs the directory.
//
// Reads need no door: recovery reads what a crash left with plain file I/O.
type Dir struct {
	path string
	fs   FS
}

// NewDir returns the durability directory at path, written through fsys.
func NewDir(path string, fsys FS) *Dir {
	return &Dir{path: path, fs: fsys}
}

// OpenLog opens (creating if needed) the log segment at path, a file in d,
// and positions for appending after startLSN, the LSN of the last record
// already in the file (ScanLog discovers it). A torn tail a crash left is
// cut off first, through Replace, so a record appended from here on follows
// the last intact one and every reader reaches it. SyncGroupCommit starts
// the commit daemon, which runs until Close.
func (d *Dir) OpenLog(path string, startLSN uint64, o Options) (*Log, error) {
	var size, last int64
	var lastLSN uint64
	f, err := d.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	switch {
	case err == nil: // a new segment: its directory entry is durable before its first record
		if err = d.fs.SyncDir(d.path); err != nil {
			f.Close()
		}
	case errors.Is(err, fs.ErrExist):
		if size, lastLSN, last, err = d.trimTornTail(path); err == nil {
			f, err = d.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	if lastLSN != startLSN {
		last = size // the segment does not hold startLSN's frame
	}
	return newLog(d, path, f, startLSN, size, last, o), nil
}

// trimTornTail replaces the segment at path with its intact frames when
// bytes follow them, and returns the length of those frames and the LSN and
// offset of the last.
func (d *Dir) trimTornTail(path string) (size int64, lastLSN uint64, last int64, err error) {
	s, err := openSegment(path)
	if s == nil {
		return 0, 0, 0, err
	}
	defer s.f.Close()
	for off := s.off; ; off = s.off {
		lsn, _, ok := s.next()
		if !ok {
			break
		}
		lastLSN, last = lsn, off
	}
	if s.off == s.size {
		return s.size, lastLSN, last, nil
	}
	return s.off, lastLSN, last, d.Replace(path, func(w io.Writer) error {
		return copyRange(w, path, 0, s.off)
	})
}

// OpenLogOpts opens the log segment at path through a Dir of its own on
// the OS file system.
func OpenLogOpts(path string, startLSN uint64, o Options) (*Log, error) {
	return NewDir(filepath.Dir(path), OS).OpenLog(path, startLSN, o)
}

// Replace durably replaces the file at path, a file in d, with the bytes
// write produces: temp file, fsync, rename, directory sync.
func (d *Dir) Replace(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := d.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: replace %s: %w", filepath.Base(path), err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	err = errors.Join(err, f.Close())
	if err == nil {
		err = d.fs.Rename(tmp, path)
	}
	if err == nil {
		err = d.fs.SyncDir(d.path)
	}
	if err != nil {
		return fmt.Errorf("wal: replace %s: %w", filepath.Base(path), err)
	}
	return nil
}

// Remove deletes the file at path, a file in d, then syncs the directory.
func (d *Dir) Remove(path string) error {
	if err := d.fs.Remove(path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return d.fs.SyncDir(d.path)
}

// withCRC frames what write produces with a CRC-32 trailer over it, the
// framing readChecked verifies (snapshots).
func withCRC(write func(w io.Writer) error) func(w io.Writer) error {
	return func(w io.Writer) error {
		crc := crc32.NewIEEE()
		if err := write(io.MultiWriter(w, crc)); err != nil {
			return err
		}
		_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
		return err
	}
}

// readChecked reads a file written through withCRC and returns its body.
// A missing file is an error wrapping fs.ErrNotExist.
func readChecked(path string) ([]byte, error) {
	name := filepath.Base(path)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", name, err)
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("wal: %s too short", name)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: %s checksum mismatch (torn write?)", name)
	}
	return body, nil
}

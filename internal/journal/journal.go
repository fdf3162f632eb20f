// Package journal provides the crash-safe write-ahead journal behind the
// resilient recovery service.
//
// The durability model is the classic WAL one: before any recovery work
// begins, an *intent* record (allocation, offset, faulting address, detected
// value) is appended and optionally fsynced; after the recovery's outcome is
// known (verified write, escalation-ladder exhaustion, abandonment), an
// *outcome* record referencing the intent is appended. A process that dies
// between the two leaves a dangling intent; on restart, Open returns every
// dangling intent so the service can re-quarantine the offset and replay the
// recovery instead of silently losing a corrupt element.
//
// Records are single JSON lines. A crash mid-append leaves at most one torn
// final line, which Scan detects (no trailing newline, or undecodable JSON
// on the last line) and discards — equivalent to the record never having
// been written, which is exactly the WAL contract.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"spatialdue/internal/faultinject"
)

// Log is a crash-safe append-only record log: one JSON document per line,
// optional fsync per append.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	sync bool
}

// OpenLog opens (creating if needed) the log at path for appending. A torn
// final record left by a crash mid-append is truncated away first, so the
// next append starts on a clean line instead of concatenating onto the torn
// tail. With sync true every append is fsynced before returning — the
// durability the WAL contract wants; false trades crash-window durability
// for speed (the OS still sees every write immediately, so only a machine
// crash, not a process crash, can lose records).
func OpenLog(path string, sync bool) (*Log, error) {
	intact, err := scanFile(path, func([]byte) error { return nil })
	if err != nil {
		return nil, err
	}
	return openLog(path, sync, intact)
}

// openLog is OpenLog for a caller that has already scanned the file:
// intact is the length of its intact prefix, which scanFile reports, and
// anything past it is a torn tail to truncate.
func openLog(path string, sync bool, intact int64) (*Log, error) {
	if dir := filepath.Dir(path); dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	st, err := os.Stat(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err == nil && st.Size() > intact {
		if err := os.Truncate(path, intact); err != nil {
			return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Log{f: f, path: path, sync: sync}, nil
}

// AppendLine appends one pre-marshaled record line (JSON, no trailing
// newline). This is the replication path: a partner receiving records off
// the stream appends the owner's exact bytes, so the replica file is a
// byte-identical prefix of the owner's journal and record sequence numbers
// (line indexes) agree on both sides.
func (l *Log) AppendLine(line []byte) error {
	data := make([]byte, 0, len(line)+1)
	data = append(data, line...)
	return l.write(append(data, '\n'))
}

// write appends data, one record line with its newline, in a single
// write(2) call.
func (l *Log) write(data []byte) error {
	if err := faultinject.ErrorPoint("journal/append"); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("journal: log %s is closed", l.path)
	}
	if _, err := l.f.Write(data); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	return nil
}

// Close syncs and closes the log. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Scan reads every intact record of the log at path, calling fn with the
// raw JSON of each line in order. A torn final record (partial line from a
// crash mid-append) is silently discarded; torn or corrupt records anywhere
// else are an error, because an append-only log can only be damaged at its
// tail by a crash. A missing file scans as empty. The scan reads through one
// reused buffer: line is valid only until fn returns, so fn copies what it
// keeps.
func Scan(path string, fn func(line []byte) error) error {
	_, err := scanFile(path, fn)
	return err
}

// Records is Scan with 1-based record sequence numbers: fn receives each
// intact line together with its index in the file. The sequence number is
// the replication protocol's cursor — "record seq N" means the Nth line of
// the owner's journal, on both ends of the stream.
func Records(path string, fn func(seq uint64, line []byte) error) error {
	var seq uint64
	return Scan(path, func(line []byte) error {
		seq++
		return fn(seq, line)
	})
}

// CountRecords returns the number of intact records in the log at path. A
// torn tail is not counted — which is exactly what a replication partner
// must resume from: the last record it can trust, never the tail.
func CountRecords(path string) (uint64, error) {
	var n uint64
	err := Scan(path, func([]byte) error {
		n++
		return nil
	})
	return n, err
}

// scanFile is Scan plus bookkeeping of the intact prefix length: the byte
// offset just past the last complete, valid record (what a tail repair
// truncates to). Lines are slices of the reader's buffer, or of one reused
// buffer for a line longer than that, so a scan allocates per file, not per
// record.
func scanFile(path string, fn func(line []byte) error) (intact int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 64<<10)
	var long []byte      // a line longer than r's buffer, reassembled
	var pendingErr error // defect found on the previous line; fatal unless it was the last
	var offset int64
	lineNo := 0
	for {
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = r.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return intact, fmt.Errorf("journal: read %s: %w", path, err)
		}
		if pendingErr != nil {
			// The defective line was complete (newline-terminated), which a
			// crashed single-write append cannot produce: real corruption.
			return intact, pendingErr
		}
		if len(line) == 0 && atEOF {
			return intact, nil
		}
		lineNo++
		offset += int64(len(line))
		torn := atEOF && (len(line) == 0 || line[len(line)-1] != '\n')
		trimmed := bytes.TrimRight(line, "\n")
		if len(trimmed) == 0 {
			intact = offset
			if atEOF {
				return intact, nil
			}
			continue
		}
		if !json.Valid(trimmed) {
			if torn || atEOF {
				// Torn tail from a crash mid-append: as if never written.
				return intact, nil
			}
			pendingErr = fmt.Errorf("journal: %s line %d: corrupt record", path, lineNo)
			continue
		}
		if torn {
			// Valid JSON but no newline: the append's final byte was lost.
			// Treat as torn — the writer had not finished the record.
			return intact, nil
		}
		if err := fn(trimmed); err != nil {
			return intact, err
		}
		intact = offset
		if atEOF {
			return intact, nil
		}
	}
}

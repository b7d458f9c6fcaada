// Package wal implements the platform's write-ahead log: an append-only
// file of length-prefixed, CRC32-checksummed records, plus the recovery
// scanner that reads back the longest valid prefix after a crash.
//
// Frame layout (little-endian):
//
//	offset 0: uint32 payload length (1 .. MaxRecordSize)
//	offset 4: uint32 CRC32 (IEEE) of the payload
//	offset 8: payload bytes
//
// The log makes exactly one durability promise: a record whose AppendBatch
// and Sync both returned nil survives a crash. Everything past the last such
// record — a torn frame from a mid-write power cut, a bit-flipped
// checksum, garbage from a misdirected write — is detected by Scan and
// truncated by Open, so a damaged log recovers to a clean prefix instead
// of refusing to open.
//
// All file access goes through the FS seam (fs.go), which is how the
// fault-injection layer (fault.go) drives the crash-recovery torture
// tests without touching a real disk's failure modes.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

const (
	// HeaderSize is the per-record frame overhead: a 4-byte payload
	// length followed by a 4-byte CRC32 of the payload.
	HeaderSize = 8
	// MaxRecordSize bounds a single record's payload. A header claiming
	// more is treated as corruption, not as an allocation request: a
	// garbage length field must never make recovery swallow the rest of
	// the file (or the heap).
	MaxRecordSize = 16 << 20
)

var (
	// ErrEmptyRecord rejects zero-length payloads: a length-0 frame is
	// indistinguishable from a zeroed (pre-allocated or torn) region, so
	// the scanner treats it as corruption and the writer refuses to
	// produce one.
	ErrEmptyRecord = errors.New("wal: empty record")
	// ErrRecordTooLarge rejects payloads above MaxRecordSize.
	ErrRecordTooLarge = errors.New("wal: record exceeds max size")
	// ErrBroken is returned by a Writer after a failed append could not
	// be repaired (the partial frame could not be truncated away): the
	// tail state is unknown, and appending after garbage would hide the
	// new record from every future recovery.
	ErrBroken = errors.New("wal: writer broken by unrepaired partial write")
)

// EncodeFrame wraps payload in a WAL frame.
func EncodeFrame(payload []byte) ([]byte, error) {
	if err := checkPayload(payload); err != nil {
		return nil, err
	}
	return appendFrame(make([]byte, 0, HeaderSize+len(payload)), payload), nil
}

// checkPayload rejects a payload no frame may carry.
func checkPayload(payload []byte) error {
	if len(payload) == 0 {
		return ErrEmptyRecord
	}
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(payload))
	}
	return nil
}

// appendFrame appends payload's frame to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// ScanResult describes what a recovery scan found.
type ScanResult struct {
	// Records holds the payloads of the valid prefix, in log order.
	Records [][]byte
	// Offsets[i] is the byte offset of Records[i]'s frame.
	Offsets []int64
	// Valid is the byte length of the valid prefix.
	Valid int64
	// Total is the byte length of the scanned input.
	Total int64
	// Corrupt explains why the scan stopped before Total; nil means the
	// log ended cleanly on a record boundary.
	Corrupt error
}

// Truncated is the number of trailing bytes that failed validation.
func (r ScanResult) Truncated() int64 { return r.Total - r.Valid }

// Scan walks the log and returns the longest valid prefix of records. It
// never fails: damage is reported in Corrupt and everything before it is
// returned.
func Scan(data []byte) ScanResult {
	res := ScanResult{Total: int64(len(data))}
	var off int64
	for {
		rest := data[off:]
		if len(rest) == 0 {
			res.Valid = off
			return res
		}
		if len(rest) < HeaderSize {
			res.Valid = off
			res.Corrupt = fmt.Errorf("wal: torn header at offset %d (%d of %d bytes)", off, len(rest), HeaderSize)
			return res
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		if length == 0 {
			res.Valid = off
			res.Corrupt = fmt.Errorf("wal: zero-length record at offset %d", off)
			return res
		}
		if length > MaxRecordSize {
			res.Valid = off
			res.Corrupt = fmt.Errorf("wal: implausible record length %d at offset %d", length, off)
			return res
		}
		end := HeaderSize + int64(length)
		if int64(len(rest)) < end {
			res.Valid = off
			res.Corrupt = fmt.Errorf("wal: torn record at offset %d (%d of %d payload bytes)", off, int64(len(rest))-HeaderSize, length)
			return res
		}
		payload := rest[HeaderSize:end]
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(rest[4:8]); got != want {
			res.Corrupt = fmt.Errorf("wal: checksum mismatch at offset %d (got %08x, want %08x)", off, got, want)
			res.Valid = off
			return res
		}
		res.Records = append(res.Records, append([]byte(nil), payload...))
		res.Offsets = append(res.Offsets, off)
		off += end
	}
}

// Writer appends frames to a log file. Appends and truncations must be
// serialized by the caller (the platform runs them under the store lock,
// which also keeps WAL order identical to in-memory apply order), but
// Sync may run concurrently with an AppendBatch: the group-commit layer fsyncs
// from outside the store lock while new frames are still being buffered
// behind it. An fsync that overlaps a frame write simply persists a
// prefix of that frame, which recovery already treats as a torn record.
type Writer struct {
	f File

	// mu guards size and broken so the concurrent Sync path can read the
	// broken flag without racing an in-flight append or repair.
	mu     sync.Mutex
	size   int64
	broken bool
}

// NewWriter wraps an open file whose valid length is size, positioned at
// that offset.
func NewWriter(f File, size int64) *Writer {
	return &Writer{f: f, size: size}
}

// AppendBatch writes n framed records as one buffered write — one syscall
// for the whole batch, and (with the single Sync that follows) one fsync
// for n records instead of n. It does not sync; call Sync before
// acknowledging the records as durable. The batch is validated in full
// before any byte is written, so one oversized or empty payload rejects
// the batch without disturbing the log. A failed or short write is
// repaired by truncating the partial batch back off the log in one piece;
// if even that fails the writer declares itself broken and refuses
// further appends. (A crash mid-batch instead leaves a frame prefix on
// disk, which recovery keeps — the batch write is not atomic across a
// power cut, only across process-level errors.)
func (w *Writer) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	total := 0
	for _, p := range payloads {
		if err := checkPayload(p); err != nil {
			return err
		}
		total += HeaderSize + len(p)
	}
	buf := make([]byte, 0, total)
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(buf)
}

// writeLocked appends buf (one or more complete frames) and repairs a
// short write by truncating back to the pre-write size. Caller holds mu.
func (w *Writer) writeLocked(buf []byte) error {
	if w.broken {
		return ErrBroken
	}
	n, werr := w.f.Write(buf)
	if werr == nil && n < len(buf) {
		werr = io.ErrShortWrite
	}
	if werr != nil {
		if n > 0 {
			if terr := w.truncateTo(w.size); terr != nil {
				w.broken = true
				return fmt.Errorf("wal: append failed (%v); repair failed: %w", werr, terr)
			}
		}
		return fmt.Errorf("wal: append: %w", werr)
	}
	w.size += int64(len(buf))
	return nil
}

// Sync flushes appended records to stable storage. It is safe to call
// concurrently with AppendBatch: the fsync runs outside the writer lock (an
// fsync overlapping a buffered frame write persists at worst a torn frame,
// which recovery truncates).
func (w *Writer) Sync() error {
	w.mu.Lock()
	if w.broken {
		w.mu.Unlock()
		return ErrBroken
	}
	f := w.f
	w.mu.Unlock()
	return f.Sync()
}

// Size is the current byte length of the log's valid content.
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Reset empties the log (after its contents have been compacted into a
// snapshot) and syncs the truncation.
func (w *Writer) Reset() error { return w.TruncateTo(0) }

// TruncateTo cuts the log back to size bytes (a record boundary chosen by
// the caller) and syncs. Used by recovery to drop a CRC-valid but
// semantically undecodable tail.
func (w *Writer) TruncateTo(size int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		return ErrBroken
	}
	if size < 0 || size > w.size {
		return fmt.Errorf("wal: truncate to %d outside [0, %d]", size, w.size)
	}
	if err := w.truncateTo(size); err != nil {
		w.broken = true
		return err
	}
	return w.f.Sync()
}

// truncateTo shrinks the file and repositions the write offset without
// syncing or touching the broken flag.
func (w *Writer) truncateTo(size int64) error {
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	if _, err := w.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	w.size = size
	return nil
}

// Close closes the underlying file.
func (w *Writer) Close() error { return w.f.Close() }

// ReadFrom re-opens the log at path read-only and scans it from byte
// offset off to the end of the file. Offsets in the result are absolute
// (off is added back), so ReadFrom(fs, p, 0) matches a full Scan. The
// replication layer uses this to export committed frames by byte range
// while a Writer holds the same file open for appends: the caller must
// serialize against appends (the platform reads under the store lock) —
// a concurrent fsync is harmless, it does not move bytes.
//
// Reading past the end of the file yields an empty result, not an error;
// a torn or corrupt region after off is reported in Corrupt exactly like
// Scan.
func ReadFrom(fsys FS, path string, off int64) (ScanResult, error) {
	if off < 0 {
		return ScanResult{}, fmt.Errorf("wal: read from negative offset %d", off)
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return ScanResult{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return ScanResult{}, fmt.Errorf("wal: seek %s to %d: %w", path, off, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return ScanResult{}, fmt.Errorf("wal: read %s: %w", path, err)
	}
	res := Scan(data)
	res.Valid += off
	res.Total += off
	for i := range res.Offsets {
		res.Offsets[i] += off
	}
	return res, nil
}

// ReadRange is ReadFrom bounded to the byte range [off, end): it scans
// only the complete frames inside the range. The replication layer uses
// it to export one batch of committed frames without holding the store
// lock across the file read — the caller captures the byte bounds under
// its lock (appends only ever extend the file past end) and revalidates
// after the read. A file shorter than end — e.g. reset by a concurrent
// compaction — yields however many valid frames the remaining bytes
// hold, not an error; the caller's revalidation discards the result.
func ReadRange(fsys FS, path string, off, end int64) (ScanResult, error) {
	if off < 0 || end < off {
		return ScanResult{}, fmt.Errorf("wal: invalid read range [%d, %d)", off, end)
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return ScanResult{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return ScanResult{}, fmt.Errorf("wal: seek %s to %d: %w", path, off, err)
	}
	data, err := io.ReadAll(io.LimitReader(f, end-off))
	if err != nil {
		return ScanResult{}, fmt.Errorf("wal: read %s: %w", path, err)
	}
	res := Scan(data)
	res.Valid += off
	res.Total += off
	for i := range res.Offsets {
		res.Offsets[i] += off
	}
	return res, nil
}

// Open opens (creating if absent) the log at path, scans it, truncates
// any torn/corrupt tail in place, and returns a Writer positioned at the
// end of the valid prefix together with the scan result.
func Open(fsys FS, path string) (*Writer, ScanResult, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, ScanResult{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, ScanResult{}, fmt.Errorf("wal: read %s: %w", path, err)
	}
	res := Scan(data)
	w := NewWriter(f, res.Valid)
	if res.Truncated() > 0 {
		// Cut the damage now, while nothing references it: recovery must
		// leave a log that a second crash-free restart reads identically.
		w.size = res.Total // let truncateTo shrink from the real file size
		if err := w.TruncateTo(res.Valid); err != nil {
			_ = f.Close()
			return nil, res, fmt.Errorf("wal: repair %s: %w", path, err)
		}
	} else if _, err := f.Seek(res.Valid, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, res, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	return w, res, nil
}

package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openAppend opens path through fsys and appends each payload, synced.
func openAppend(t *testing.T, fsys FS, path string, payloads ...[]byte) *Writer {
	t.Helper()
	w, _, err := Open(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.AppendBatch([][]byte{p}); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%d-%s", i, strings.Repeat("x", i*3)))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	recs := payloads(5)
	w := openAppend(t, OS(), path, recs...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, res, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.Corrupt != nil {
		t.Fatalf("clean log reported corrupt: %v", res.Corrupt)
	}
	if res.Truncated() != 0 {
		t.Fatalf("clean log truncated %d bytes", res.Truncated())
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(res.Records), len(recs))
	}
	for i, rec := range recs {
		if !bytes.Equal(res.Records[i], rec) {
			t.Errorf("record %d = %q, want %q", i, res.Records[i], rec)
		}
	}
	// Appends after recovery must land after the existing records.
	if err := w2.AppendBatch([][]byte{[]byte("after")}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	_, res, err = Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs)+1 || string(res.Records[len(recs)]) != "after" {
		t.Fatalf("post-recovery append not recovered: %d records", len(res.Records))
	}
}

// TestScanCorruptionTable damages a known-good log in every way the
// recovery path must tolerate and checks the longest valid prefix comes
// back each time.
func TestScanCorruptionTable(t *testing.T) {
	recs := payloads(3)
	var clean []byte
	var offsets []int64
	for _, rec := range recs {
		frame, err := EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, int64(len(clean)))
		clean = append(clean, frame...)
	}
	lastStart := int(offsets[2])

	cases := []struct {
		name        string
		mutate      func([]byte) []byte
		wantRecords int
		wantValid   int64
	}{
		{"clean", func(b []byte) []byte { return b }, 3, int64(len(clean))},
		{"truncated mid-payload", func(b []byte) []byte { return b[:len(b)-3] }, 2, offsets[2]},
		{"truncated mid-header", func(b []byte) []byte { return b[:lastStart+5] }, 2, offsets[2]},
		{"flipped CRC byte", func(b []byte) []byte { b[lastStart+4] ^= 0xFF; return b }, 2, offsets[2]},
		{"flipped payload byte", func(b []byte) []byte { b[lastStart+HeaderSize+1] ^= 0x01; return b }, 2, offsets[2]},
		{"zero-length record", func(b []byte) []byte { return append(b, 0, 0, 0, 0, 0xAA, 0xBB, 0xCC, 0xDD) }, 3, int64(len(clean))},
		{"garbage header", func(b []byte) []byte {
			garbage := make([]byte, 16)
			binary.LittleEndian.PutUint32(garbage, MaxRecordSize+1)
			return append(b, garbage...)
		}, 3, int64(len(clean))},
		{"garbage only", func([]byte) []byte { return []byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5} }, 0, 0},
		{"empty log", func([]byte) []byte { return nil }, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), clean...))
			res := Scan(data)
			if len(res.Records) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d (corrupt: %v)", len(res.Records), tc.wantRecords, res.Corrupt)
			}
			if res.Valid != tc.wantValid {
				t.Errorf("valid prefix %d bytes, want %d", res.Valid, tc.wantValid)
			}
			damaged := int64(len(data)) != tc.wantValid
			if damaged && res.Corrupt == nil {
				t.Error("damaged log scanned with nil Corrupt")
			}
			if !damaged && res.Corrupt != nil {
				t.Errorf("clean log reported corrupt: %v", res.Corrupt)
			}
			for i := 0; i < tc.wantRecords; i++ {
				if !bytes.Equal(res.Records[i], recs[i]) {
					t.Errorf("record %d = %q, want %q", i, res.Records[i], recs[i])
				}
			}
		})
	}
}

// TestOpenRepairsDamage checks Open truncates a torn tail in place: a
// second open must see a clean log of the same prefix.
func TestOpenRepairsDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w := openAppend(t, OS(), path, payloads(3)...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, res, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || res.Truncated() == 0 {
		t.Fatalf("first reopen: %d records, truncated %d", len(res.Records), res.Truncated())
	}
	// Append on top of the repaired log, then verify a fresh scan is clean.
	if err := w2.AppendBatch([][]byte{[]byte("tail")}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, res, err = Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != nil || len(res.Records) != 3 {
		t.Fatalf("second reopen: %d records, corrupt %v", len(res.Records), res.Corrupt)
	}
	if string(res.Records[2]) != "tail" {
		t.Errorf("appended record = %q", res.Records[2])
	}
}

func TestWriterRejectsBadPayloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendBatch([][]byte{nil}); !errors.Is(err, ErrEmptyRecord) {
		t.Errorf("empty append: %v", err)
	}
	if err := w.AppendBatch([][]byte{make([]byte, MaxRecordSize+1)}); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversized append: %v", err)
	}
	if w.Size() != 0 {
		t.Errorf("rejected appends changed size to %d", w.Size())
	}
}

func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w := openAppend(t, OS(), path, payloads(4)...)
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([][]byte{[]byte("fresh")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, res, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || string(res.Records[0]) != "fresh" {
		t.Fatalf("after reset: %d records", len(res.Records))
	}
}

// TestShortWriteIsRepaired injects a transient short write: the append
// fails, the partial frame is truncated away, and the writer keeps
// working — the log never contains the torn frame.
func TestShortWriteIsRepaired(t *testing.T) {
	ffs := NewFaultFS(OS())
	path := filepath.Join(t.TempDir(), "wal.log")
	w := openAppend(t, ffs, path, []byte("one"))

	ffs.ShortWriteOnce(5)
	if err := w.AppendBatch([][]byte{[]byte("two-that-tears")}); err == nil {
		t.Fatal("short write did not surface an error")
	}
	if err := w.AppendBatch([][]byte{[]byte("three")}); err != nil {
		t.Fatalf("append after repaired short write: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, res, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != nil {
		t.Fatalf("repaired log still corrupt: %v", res.Corrupt)
	}
	got := make([]string, len(res.Records))
	for i, r := range res.Records {
		got[i] = string(r)
	}
	if len(got) != 2 || got[0] != "one" || got[1] != "three" {
		t.Fatalf("recovered %v, want [one three]", got)
	}
}

// TestCrashLeavesRecoverablePrefix arms a crash mid-frame and checks the
// writer reports the failure, refuses further work, and leaves a log
// whose scan yields exactly the pre-crash records.
func TestCrashLeavesRecoverablePrefix(t *testing.T) {
	ffs := NewFaultFS(OS())
	path := filepath.Join(t.TempDir(), "wal.log")
	w := openAppend(t, ffs, path, []byte("alpha"), []byte("beta"))

	ffs.CrashAfterBytes(6) // tears the third frame mid-header
	if err := w.AppendBatch([][]byte{[]byte("gamma")}); err == nil {
		t.Fatal("append through a crash succeeded")
	}
	if !ffs.Crashed() {
		t.Fatal("crash did not fire")
	}
	// The repair truncate also fails (machine is dead) → writer broken.
	if err := w.AppendBatch([][]byte{[]byte("delta")}); !errors.Is(err, ErrBroken) {
		t.Errorf("append after crash: %v, want ErrBroken", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrBroken) {
		t.Errorf("sync after crash: %v, want ErrBroken", err)
	}
	_ = w.Close()

	// "Reboot": recover with a healthy filesystem.
	w2, res, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(res.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(res.Records))
	}
	if res.Corrupt == nil || res.Truncated() == 0 {
		t.Fatalf("torn tail not reported: truncated=%d corrupt=%v", res.Truncated(), res.Corrupt)
	}
	if string(res.Records[0]) != "alpha" || string(res.Records[1]) != "beta" {
		t.Errorf("recovered %q, %q", res.Records[0], res.Records[1])
	}
}

// TestAppendBatchRoundTrip: a batch lands as ordinary frames — the file is
// byte for byte the EncodeFrame of each payload, so a reader cannot tell a
// batch from batches of one, and batches of one can follow.
func TestAppendBatchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	recs := payloads(6)
	if err := w.AppendBatch(recs[:4]); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([][]byte{recs[4]}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(recs[5:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(nil); err != nil { // empty batch is a no-op
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, res, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != nil || len(res.Records) != len(recs) {
		t.Fatalf("recovered %d records (corrupt %v), want %d", len(res.Records), res.Corrupt, len(recs))
	}
	var want []byte
	for i, rec := range recs {
		if !bytes.Equal(res.Records[i], rec) {
			t.Errorf("record %d = %q, want %q", i, res.Records[i], rec)
		}
		frame, err := EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("log bytes differ from the EncodeFrame concatenation (read err %v)", err)
	}
}

// TestAppendBatchValidatesBeforeWriting: one bad payload rejects the whole
// batch before any byte reaches the log.
func TestAppendBatchValidatesBeforeWriting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendBatch([][]byte{[]byte("ok"), nil, []byte("also ok")}); !errors.Is(err, ErrEmptyRecord) {
		t.Errorf("batch with empty payload: %v", err)
	}
	if err := w.AppendBatch([][]byte{[]byte("ok"), make([]byte, MaxRecordSize+1)}); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("batch with oversized payload: %v", err)
	}
	if w.Size() != 0 {
		t.Errorf("rejected batches wrote %d bytes", w.Size())
	}
}

// TestAppendBatchShortWriteIsRepaired: a transient short write tears the
// batch mid-frame; the repair truncates the whole partial batch away and
// the writer keeps working.
func TestAppendBatchShortWriteIsRepaired(t *testing.T) {
	ffs := NewFaultFS(OS())
	path := filepath.Join(t.TempDir(), "wal.log")
	w := openAppend(t, ffs, path, []byte("one"))

	// Keep enough bytes that the first frame of the batch is complete on
	// disk before the tear: the repair must still remove all of it.
	first, err := EncodeFrame([]byte("batch-a"))
	if err != nil {
		t.Fatal(err)
	}
	ffs.ShortWriteOnce(len(first) + 3)
	if err := w.AppendBatch([][]byte{[]byte("batch-a"), []byte("batch-b")}); err == nil {
		t.Fatal("short batch write did not surface an error")
	}
	if err := w.AppendBatch([][]byte{[]byte("three")}); err != nil {
		t.Fatalf("append after repaired batch: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, res, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != nil {
		t.Fatalf("repaired log still corrupt: %v", res.Corrupt)
	}
	got := make([]string, len(res.Records))
	for i, r := range res.Records {
		got[i] = string(r)
	}
	if len(got) != 2 || got[0] != "one" || got[1] != "three" {
		t.Fatalf("recovered %v, want [one three]", got)
	}
}

// TestAppendBatchCrashKeepsFramePrefix: a power cut mid-batch leaves the
// completed leading frames on disk; recovery keeps them and truncates the
// torn one. The batch is atomic against process errors (the repair path),
// not against crashes — exactly the contract the platform's group-commit
// ack layer is built on.
func TestAppendBatchCrashKeepsFramePrefix(t *testing.T) {
	ffs := NewFaultFS(OS())
	path := filepath.Join(t.TempDir(), "wal.log")
	w := openAppend(t, ffs, path, []byte("pre"))

	first, err := EncodeFrame([]byte("batch-a"))
	if err != nil {
		t.Fatal(err)
	}
	// Crash inside the second frame of the batch: frame one fully written.
	ffs.CrashAfterBytes(int64(len(first)) + 5)
	if err := w.AppendBatch([][]byte{[]byte("batch-a"), []byte("batch-b"), []byte("batch-c")}); err == nil {
		t.Fatal("batch through a crash succeeded")
	}
	if !ffs.Crashed() {
		t.Fatal("crash did not fire")
	}
	_ = w.Close()

	_, res, err := Open(OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res.Records))
	for i, r := range res.Records {
		got[i] = string(r)
	}
	if len(got) != 2 || got[0] != "pre" || got[1] != "batch-a" {
		t.Fatalf("recovered %v, want [pre batch-a]", got)
	}
	if res.Corrupt == nil || res.Truncated() == 0 {
		t.Fatalf("torn batch tail not reported: truncated=%d corrupt=%v", res.Truncated(), res.Corrupt)
	}
}

func TestFailSyncSurfaces(t *testing.T) {
	ffs := NewFaultFS(OS())
	path := filepath.Join(t.TempDir(), "wal.log")
	w := openAppend(t, ffs, path, []byte("one"))

	injected := errors.New("disk on fire")
	ffs.FailSync(injected)
	if err := w.AppendBatch([][]byte{[]byte("two")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, injected) {
		t.Errorf("sync = %v, want injected error", err)
	}
	ffs.FailSync(nil)
	if err := w.Sync(); err != nil {
		t.Errorf("sync after clearing fault: %v", err)
	}
	_ = w.Close()
}

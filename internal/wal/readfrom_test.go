package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// writeFrames appends payloads through a Writer and returns the per-frame
// byte offsets as a full Scan would report them.
func writeFrames(t *testing.T, fsys FS, path string, payloads [][]byte) []int64 {
	t.Helper()
	w, _, err := Open(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]int64, len(payloads))
	for i, p := range payloads {
		offsets[i] = w.Size()
		if err := w.AppendBatch([][]byte{p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return offsets
}

func TestReadFromExportsSuffixWithAbsoluteOffsets(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "wal.log")
	payloads := [][]byte{[]byte("alpha"), []byte("bravo-longer"), []byte("c"), []byte("delta")}
	offsets := writeFrames(t, fsys, path, payloads)

	// From zero: identical to a full scan.
	full, err := ReadFrom(fsys, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) != len(payloads) || full.Corrupt != nil {
		t.Fatalf("full read = %d records (corrupt %v), want %d", len(full.Records), full.Corrupt, len(payloads))
	}

	// From each frame boundary: the tail, with absolute offsets.
	for start := range payloads {
		res, err := ReadFrom(fsys, path, offsets[start])
		if err != nil {
			t.Fatal(err)
		}
		if res.Corrupt != nil {
			t.Fatalf("read from %d: corrupt %v", offsets[start], res.Corrupt)
		}
		if got, want := len(res.Records), len(payloads)-start; got != want {
			t.Fatalf("read from frame %d: %d records, want %d", start, got, want)
		}
		for j, rec := range res.Records {
			if string(rec) != string(payloads[start+j]) {
				t.Errorf("frame %d payload = %q, want %q", start+j, rec, payloads[start+j])
			}
			if res.Offsets[j] != offsets[start+j] {
				t.Errorf("frame %d offset = %d, want absolute %d", start+j, res.Offsets[j], offsets[start+j])
			}
		}
	}
}

func TestReadFromPastEndIsEmpty(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "wal.log")
	writeFrames(t, fsys, path, [][]byte{[]byte("only")})
	res, err := ReadFrom(fsys, path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 || res.Corrupt != nil {
		t.Fatalf("read past end = %d records, corrupt %v; want empty clean", len(res.Records), res.Corrupt)
	}
	if _, err := ReadFrom(fsys, path, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestReadRangeExportsBoundedBatch(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "wal.log")
	payloads := [][]byte{[]byte("alpha"), []byte("bravo-longer"), []byte("c"), []byte("delta")}
	offsets := writeFrames(t, fsys, path, payloads)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// The middle two frames, exactly: [offset of 1, offset of 3).
	res, err := ReadRange(fsys, path, offsets[1], offsets[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || res.Corrupt != nil {
		t.Fatalf("range read = %d records (corrupt %v), want 2 clean", len(res.Records), res.Corrupt)
	}
	for j, rec := range res.Records {
		if string(rec) != string(payloads[1+j]) {
			t.Errorf("frame %d payload = %q, want %q", 1+j, rec, payloads[1+j])
		}
		if res.Offsets[j] != offsets[1+j] {
			t.Errorf("frame %d offset = %d, want absolute %d", 1+j, res.Offsets[j], offsets[1+j])
		}
	}

	// A full range matches a full scan; an end past EOF is tolerated (the
	// file may have been truncated by a concurrent compaction — the caller
	// revalidates), yielding whatever complete frames remain.
	full, err := ReadRange(fsys, path, 0, info.Size())
	if err != nil || len(full.Records) != len(payloads) {
		t.Fatalf("full range = %d records, err=%v; want %d", len(full.Records), err, len(payloads))
	}
	over, err := ReadRange(fsys, path, offsets[2], info.Size()+1<<20)
	if err != nil || len(over.Records) != 2 {
		t.Fatalf("over-long range = %d records, err=%v; want the 2 remaining", len(over.Records), err)
	}

	// An empty range is empty, not an error; inverted or negative ranges
	// are refused.
	empty, err := ReadRange(fsys, path, offsets[1], offsets[1])
	if err != nil || len(empty.Records) != 0 {
		t.Fatalf("empty range = %d records, err=%v; want none", len(empty.Records), err)
	}
	if _, err := ReadRange(fsys, path, offsets[1], offsets[0]); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := ReadRange(fsys, path, -1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}

	// A range ending mid-frame yields only the complete frames before it
	// (the partial tail is reported corrupt, exactly like a torn file).
	cut, err := ReadRange(fsys, path, 0, offsets[1]+3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Records) != 1 || string(cut.Records[0]) != "alpha" {
		t.Fatalf("mid-frame cut = %d records, want just alpha", len(cut.Records))
	}
}

func TestReadFromReportsTornTail(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "wal.log")
	offsets := writeFrames(t, fsys, path,
		[][]byte{[]byte("keep-me"), []byte("also-keep"), []byte("gets-torn-off")})

	// Tear the final frame: cut its last 4 bytes off the file.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-4); err != nil {
		t.Fatal(err)
	}

	res, err := ReadFrom(fsys, path, offsets[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || string(res.Records[0]) != "also-keep" || res.Corrupt == nil {
		t.Fatalf("torn tail read = %d records, corrupt %v; want [also-keep] + corrupt", len(res.Records), res.Corrupt)
	}
	if res.Valid != offsets[2] {
		t.Errorf("valid prefix ends at %d, want %d (absolute)", res.Valid, offsets[2])
	}
}

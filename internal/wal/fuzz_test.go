package wal

import (
	"bytes"
	"testing"
)

// FuzzScan checks the recovery scanner on arbitrary bytes: it never
// panics, the valid prefix it reports is exactly the re-encoding of the
// records it returns (with each offset at its frame's start), it reports
// damage exactly when it stops short of the input, and rescanning the
// valid prefix alone finds it clean and yields the same records.
func FuzzScan(f *testing.F) {
	good, err := EncodeFrame([]byte(`{"seq":1,"op":"submit"}`))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[4] ^= 0x01 // a CRC byte
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), good[:3]...))                 // torn header
	f.Add(append(append([]byte(nil), good...), make([]byte, HeaderSize)...)) // zero length
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		res := Scan(data)
		if res.Total != int64(len(data)) || res.Valid < 0 || res.Valid > res.Total {
			t.Fatalf("Valid %d, Total %d for %d input bytes", res.Valid, res.Total, len(data))
		}
		if (res.Corrupt == nil) != (res.Valid == res.Total) {
			t.Fatalf("Corrupt = %v with Valid %d of %d", res.Corrupt, res.Valid, res.Total)
		}
		if len(res.Offsets) != len(res.Records) {
			t.Fatalf("%d offsets for %d records", len(res.Offsets), len(res.Records))
		}
		var enc []byte
		for i, r := range res.Records {
			if res.Offsets[i] != int64(len(enc)) {
				t.Fatalf("record %d at offset %d, its frame starts at %d", i, res.Offsets[i], len(enc))
			}
			frame, err := EncodeFrame(r)
			if err != nil {
				t.Fatalf("record %d does not re-encode: %v", i, err)
			}
			enc = append(enc, frame...)
		}
		if !bytes.Equal(enc, data[:res.Valid]) {
			t.Fatalf("re-encoded records (%d bytes) differ from the valid prefix (%d bytes)", len(enc), res.Valid)
		}

		again := Scan(data[:res.Valid])
		if again.Corrupt != nil || again.Valid != res.Valid || len(again.Records) != len(res.Records) {
			t.Fatalf("rescan of the valid prefix: Valid %d, %d records, Corrupt %v; want %d, %d, nil",
				again.Valid, len(again.Records), again.Corrupt, res.Valid, len(res.Records))
		}
		for i := range res.Records {
			if !bytes.Equal(again.Records[i], res.Records[i]) || again.Offsets[i] != res.Offsets[i] {
				t.Fatalf("rescan record %d differs", i)
			}
		}
	})
}

package monsvc

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestDecodeFrameBoundsBeforeAlloc feeds an 11-byte frame that claims
// 2^21 rows at the default world bound: the decoder must reject it from
// the input length, not size the row slice from the claimed count first.
func TestDecodeFrameBoundsBeforeAlloc(t *testing.T) {
	const n = 1 << 21
	b := binary.AppendUvarint(nil, frameVersion)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, n)
	b = append(b, 0, 0, 0, 0, 0)
	if len(b) != 11 {
		t.Fatalf("crafted frame is %d bytes, want 11", len(b))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeFrame(b, n)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("DecodeFrame accepted a frame claiming more rows than its bytes hold")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
		t.Fatalf("DecodeFrame allocated %d B rejecting an 11-byte frame, want <= 4 KiB", got)
	}
}

// FuzzDecodeFrame checks that DecodeFrame never panics on untrusted
// ingest bytes, and that a frame it accepts re-encodes to a frame that
// decodes to the same epoch and rows.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 0, nil))
	f.Add(AppendFrame(nil, 42, []RankRow{
		{Rank: 0, Row: row([3]uint64{1, 2, 64}, [3]uint64{3, 1, 8})},
		{Rank: 2},
	}))
	const n = 64
	f.Fuzz(func(t *testing.T, b []byte) {
		epoch, rows, err := DecodeFrame(b, n)
		if err != nil {
			return
		}
		epoch2, rows2, err := DecodeFrame(AppendFrame(nil, epoch, rows), n)
		if err != nil {
			t.Fatalf("re-decoding the re-encoded frame: %v", err)
		}
		if epoch2 != epoch || len(rows2) != len(rows) {
			t.Fatalf("round trip: epoch %d rows %d, want %d / %d", epoch2, len(rows2), epoch, len(rows))
		}
		for i := range rows {
			if rows2[i].Rank != rows[i].Rank || !rowEqual(rows2[i].Row, rows[i].Row) {
				t.Fatalf("round trip changed row %d: %+v vs %+v", i, rows2[i], rows[i])
			}
		}
	})
}

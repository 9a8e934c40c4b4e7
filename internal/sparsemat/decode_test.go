package sparsemat

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRowBoundsBeforeAlloc feeds a 4-byte row whose header claims
// about 2^21 entries: the decoder must reject it from the input length,
// not size three slices from the claimed count first.
func TestDecodeRowBoundsBeforeAlloc(t *testing.T) {
	const n = 1 << 21
	b := append(binary.AppendUvarint(nil, n-1), 0)
	if len(b) != 4 {
		t.Fatalf("crafted row is %d bytes, want 4", len(b))
	}
	var err error
	got := allocBytes(func() { _, _, err = DecodeRow(b, n) })
	if err == nil {
		t.Fatal("DecodeRow accepted a row claiming more entries than its bytes hold")
	}
	if got > 4<<10 {
		t.Fatalf("DecodeRow allocated %d B rejecting a 4-byte row, want <= 4 KiB", got)
	}
}

// FuzzDecodeRow checks that DecodeRow never panics, that a row it accepts
// is valid and consumed no more than the input, and that the accepted row
// survives an encode/decode round trip.
func FuzzDecodeRow(f *testing.F) {
	f.Add(AppendRow(nil, Row{}))
	f.Add(AppendRow(nil, Row{Dst: []int32{0, 1, 4095}, Cnt: []uint64{1, 2, 3}, Byt: []uint64{8, 0, 1 << 40}}))
	const n = 1 << 20
	f.Fuzz(func(t *testing.T, b []byte) {
		r, used, err := DecodeRow(b, n)
		if err != nil {
			return
		}
		if used > len(b) {
			t.Fatalf("consumed %d of %d bytes", used, len(b))
		}
		if err := r.Validate(n); err != nil {
			t.Fatalf("decoded an invalid row: %v", err)
		}
		enc := AppendRow(nil, r)
		again, used2, err := DecodeRow(enc, n)
		if err != nil || used2 != len(enc) {
			t.Fatalf("re-decoding the re-encoded row: used %d of %d, err %v", used2, len(enc), err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("round trip changed the row: %+v vs %+v", r, again)
		}
	})
}

// Package monsvc is the monitoring service: a long-lived daemon that
// hosts many concurrently monitored jobs (simulated worlds, one per
// tenant), ingests their per-rank sparse communication rows as they are
// produced, and serves the resulting matrices online — while the
// applications still run — instead of post-mortem.
//
// A job registers through the submission API and receives an opaque id
// plus a bearer token; its ranks then stream epoch-tagged row frames
// (the varint/delta row encoding of package sparsemat, framed below).
// The service keeps a sliding window of the last K epochs per job plus a
// compacted cumulative matrix: evicting an epoch folds its rows into the
// cumulative state, so memory stays O(sum of live nnz) while the
// whole-run view survives. Idle jobs are evicted wholesale.
//
// The read side is the point: GET /matrix (dense/sparse JSON via the
// same crossover the library's WriteJSON uses), /heatmap (SVG or TSV),
// /summary (matstat sparse statistics), and a fleet-level Prometheus
// /metrics endpoint that merges every job's registry under a job label.
package monsvc

import (
	"encoding/binary"
	"fmt"

	"mpimon/internal/sparsemat"
)

// frameVersion is the ingest wire version; bump on incompatible change.
const frameVersion = 1

// RankRow is one rank's sparse row, as framed on the ingest wire and as
// stored per epoch.
type RankRow struct {
	Rank int32
	Row  sparsemat.Row
}

// AppendFrame appends the ingest wire encoding of one push to buf: the
// frame version, the epoch the rows belong to, the row count, then each
// row as {uvarint rank, sparsemat row encoding}. A push may carry any
// subset of a job's ranks — a single rank streaming its own row is the
// common case — and ranks may repeat across pushes of the same epoch
// (the service accumulates).
func AppendFrame(buf []byte, epoch uint64, rows []RankRow) []byte {
	buf = binary.AppendUvarint(buf, frameVersion)
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, rr := range rows {
		buf = binary.AppendUvarint(buf, uint64(rr.Rank))
		buf = sparsemat.AppendRow(buf, rr.Row)
	}
	return buf
}

// DecodeFrame parses one ingest frame; n bounds the rank and destination
// space (the job's world size). The whole buffer must be consumed.
func DecodeFrame(b []byte, n int) (epoch uint64, rows []RankRow, err error) {
	v, off := binary.Uvarint(b)
	if off <= 0 {
		return 0, nil, fmt.Errorf("monsvc: truncated frame version")
	}
	if v != frameVersion {
		return 0, nil, fmt.Errorf("monsvc: unsupported frame version %d (want %d)", v, frameVersion)
	}
	epoch, k := binary.Uvarint(b[off:])
	if k <= 0 {
		return 0, nil, fmt.Errorf("monsvc: truncated frame epoch")
	}
	off += k
	nRows, k := binary.Uvarint(b[off:])
	if k <= 0 {
		return 0, nil, fmt.Errorf("monsvc: truncated frame row count")
	}
	off += k
	if nRows > uint64(n) {
		return 0, nil, fmt.Errorf("monsvc: frame claims %d rows for a world of %d", nRows, n)
	}
	// Each row takes at least 2 bytes (rank and entry count), so a
	// count the input cannot hold is rejected before it sizes anything.
	if nRows > uint64(len(b)-off)/2 {
		return 0, nil, fmt.Errorf("monsvc: frame claims %d rows in %d bytes", nRows, len(b)-off)
	}
	rows = make([]RankRow, 0, nRows)
	for i := uint64(0); i < nRows; i++ {
		rank, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return 0, nil, fmt.Errorf("monsvc: truncated rank of row %d", i)
		}
		off += k
		if rank >= uint64(n) {
			return 0, nil, fmt.Errorf("monsvc: rank %d outside world of %d", rank, n)
		}
		row, used, err := sparsemat.DecodeRow(b[off:], n)
		if err != nil {
			return 0, nil, fmt.Errorf("monsvc: row of rank %d: %w", rank, err)
		}
		off += used
		rows = append(rows, RankRow{Rank: int32(rank), Row: row})
	}
	if off != len(b) {
		return 0, nil, fmt.Errorf("monsvc: frame has %d trailing bytes", len(b)-off)
	}
	return epoch, rows, nil
}

// mergeRows adds b into a (both sorted by strictly ascending Dst) and
// returns the merged row — the element-wise sum, O(nnz(a)+nnz(b)).
func mergeRows(a, b sparsemat.Row) sparsemat.Row {
	if len(a.Dst) == 0 {
		return b
	}
	if len(b.Dst) == 0 {
		return a
	}
	out := sparsemat.Row{
		Dst: make([]int32, 0, len(a.Dst)+len(b.Dst)),
		Cnt: make([]uint64, 0, len(a.Dst)+len(b.Dst)),
		Byt: make([]uint64, 0, len(a.Dst)+len(b.Dst)),
	}
	i, j := 0, 0
	for i < len(a.Dst) && j < len(b.Dst) {
		switch {
		case a.Dst[i] < b.Dst[j]:
			out.Dst = append(out.Dst, a.Dst[i])
			out.Cnt = append(out.Cnt, a.Cnt[i])
			out.Byt = append(out.Byt, a.Byt[i])
			i++
		case a.Dst[i] > b.Dst[j]:
			out.Dst = append(out.Dst, b.Dst[j])
			out.Cnt = append(out.Cnt, b.Cnt[j])
			out.Byt = append(out.Byt, b.Byt[j])
			j++
		default:
			out.Dst = append(out.Dst, a.Dst[i])
			out.Cnt = append(out.Cnt, a.Cnt[i]+b.Cnt[j])
			out.Byt = append(out.Byt, a.Byt[i]+b.Byt[j])
			i++
			j++
		}
	}
	for ; i < len(a.Dst); i++ {
		out.Dst = append(out.Dst, a.Dst[i])
		out.Cnt = append(out.Cnt, a.Cnt[i])
		out.Byt = append(out.Byt, a.Byt[i])
	}
	for ; j < len(b.Dst); j++ {
		out.Dst = append(out.Dst, b.Dst[j])
		out.Cnt = append(out.Cnt, b.Cnt[j])
		out.Byt = append(out.Byt, b.Byt[j])
	}
	return out
}

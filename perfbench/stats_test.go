package main

import (
	"testing"
	"time"
)

func series(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: the functions must sort
	}
	return v
}

func TestHighestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		pct   float64
		value float64
	}{
		{200, 95, 190},
		{1000, 99, 990},
		{11, 100 * 1.0 / 11, 1},
	} {
		got, ok := highestTail(series(tc.n))
		if !ok || got.Pct != tc.pct || got.Value != tc.value || got.N != tc.n {
			t.Errorf("n=%d: got %+v ok=%v, want p%.4g = %g over %d", tc.n, got, ok, tc.pct, tc.value, tc.n)
		}
	}
	if got, ok := highestTail(series(10)); ok {
		t.Errorf("10 samples: got %+v, want no percentile", got)
	}
}

func TestQuantileReportsSamplesBeyond(t *testing.T) {
	s := sortedCopy(series(200))
	if v, beyond := quantile(s, 0.95); v != 190 || beyond != 10 {
		t.Errorf("p95 of 200: %g with %d beyond, want 190 with 10", v, beyond)
	}
	if v, beyond := quantile(s, 0.5); v != 100 || beyond != 100 {
		t.Errorf("p50 of 200: %g with %d beyond, want 100 with 100", v, beyond)
	}
	// Below 200 samples p95 has fewer than minBeyond samples after it.
	if _, beyond := quantile(sortedCopy(series(199)), 0.95); beyond >= minBeyond {
		t.Errorf("p95 of 199 has %d beyond, want < %d", beyond, minBeyond)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if m := mean([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("mean = %g", m)
	}
	if s := relSpread([]float64{9, 10, 11}); s != 0.2 {
		t.Errorf("spread = %g, want 0.2", s)
	}
}

func batchesOf(sizes ...int) []*batchResult {
	var bs []*batchResult
	for _, n := range sizes {
		b := &batchResult{}
		for i := 0; i < n; i++ {
			b.iters = append(b.iters, time.Duration(len(bs)+1)*time.Millisecond)
		}
		bs = append(bs, b)
	}
	return bs
}

func TestIterBlocksHoldTwoHundredIterations(t *testing.T) {
	for _, tc := range []struct {
		sizes []int
		want  []float64 // each block's p50: its batches' iterations read 1, 2, ... ms
	}{
		{[]int{201, 201, 201}, []float64{1, 2, 3}},
		{[]int{100, 100, 100, 100, 50}, []float64{1, 4}}, // tail of 150 joins the second block
		{[]int{24, 24}, []float64{1}},                    // one short block when that is all
	} {
		p50s, p95s := iterBlocks(batchesOf(tc.sizes...))
		if len(p50s) != len(tc.want) || len(p95s) != len(tc.want) {
			t.Errorf("sizes %v: %d blocks, want %d", tc.sizes, len(p50s), len(tc.want))
			continue
		}
		for i := range tc.want {
			if p50s[i] != tc.want[i] {
				t.Errorf("sizes %v: block %d p50 %g, want %g", tc.sizes, i, p50s[i], tc.want[i])
			}
		}
	}
}

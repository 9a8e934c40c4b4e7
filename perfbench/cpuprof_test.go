package main

import (
	"math"
	"strings"
	"testing"
)

const pprofTop = `File: perfbench-bin
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 2s, Total samples = 2s (100.00%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.40s 20.00% 20.00%      0.80s 40.00%  mpimon/internal/mpi.(*Comm).send
     0.30s 15.00% 35.00%      0.30s 15.00%  mpimon/internal/netsim/event.(*Heap).Push
     0.20s 10.00% 45.00%      0.20s 10.00%  runtime.scanobject
     0.20s 10.00% 55.00%      0.20s 10.00%  runtime.futex
     0.10s  5.00% 60.00%      0.10s  5.00%  internal/sync.(*Mutex).Unlock (inline)
     0.20s 10.00% 70.00%      0.30s 15.00%  mpimon/internal/pml.(*Monitor).recordBatched
     0.10s  5.00% 75.00%      0.10s  5.00%  mpimon/internal/netsim.(*Network).TransferF
     0.10s  5.00% 80.00%      0.10s  5.00%  mpimon/internal/sparsemat.DecodeRow
     0.10s  5.00% 85.00%      0.10s  5.00%  mpimon/internal/treematch.MapTree.func1
     0.05s  2.50% 87.50%      0.05s  2.50%  mpimon/internal/online.(*Controller).decide
     0.05s  2.50% 90.00%      0.05s  2.50%  runtime.mallocgc
     0.20s 10.00%   100%      0.20s 10.00%  sort.partition_func
`

func TestFoldPprofTopIntoLayers(t *testing.T) {
	got, err := foldPprofTop(strings.NewReader(pprofTop))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"engine": 15, "mpi": 20, "netsim": 5, "pml": 10, "monitoring": 5,
		"treematch": 5, "online": 2.5, "gc": 12.5, "sched": 15, "other": 10,
	}
	total := 0.0
	for _, b := range cpuBuckets {
		if math.Abs(got[b]-want[b]) > 1e-9 {
			t.Errorf("bucket %s = %g%%, want %g%%", b, got[b], want[b])
		}
		total += got[b]
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("buckets sum to %g%%, want 100%%", total)
	}
}

func TestFoldPprofTopRejectsOtherOutput(t *testing.T) {
	for _, in := range []string{
		"",
		"no table here\n",
		"      flat  flat%   sum%        cum   cum%\n",
		"      flat  flat%   sum%        cum   cum%\n     0.1s  x  y  z w  runtime.futex\n",
	} {
		if _, err := foldPprofTop(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want an error", in)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for sym, pkg := range map[string]string{
		"mpimon/internal/netsim/event.(*Heap).Push": "mpimon/internal/netsim/event",
		"mpimon/internal/mpi.reduceInto":            "mpimon/internal/mpi",
		"runtime.mallocgc":                          "runtime",
		"sync/atomic.(*Int64).Add":                  "sync/atomic",
		"memeqbody":                                 "memeqbody",
	} {
		if got := funcPackage(sym); got != pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, pkg)
		}
	}
}

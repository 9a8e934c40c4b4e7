package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"mpimon/internal/mpi"
	"mpimon/internal/pml"
)

// batchResult is what one world's run measured.
type batchResult struct {
	traced bool
	setup  time.Duration
	run    time.Duration // host time of World.Run, i.e. after set-up
	iters  []time.Duration
	// redistribute is the world's time in Redistribute, timed like an
	// iteration.
	redistribute time.Duration
	virt         time.Duration // World.MaxClock at the end
	msgs         uint64        // pml-recorded messages, every class
	alloc        uint64        // host bytes allocated during Run

	// Exact fingerprint pinned across batches on the event engine.
	events uint64
	nnz    int64
	k      []int

	// Traced batches only.
	spans      []span
	worldBytes int64
	bytes      uint64
	folds      uint64
	xmitBytes  int64
	nicWait    int64
	gcCycles   uint32
	gcPause    time.Duration
	mallocs    uint64
	b          *batch
}

// freeHeap returns the previous world's memory before the next set-up is
// timed, so every set-up starts from the same heap state.
func freeHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// heapInUse is the live heap after a full collection.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// timeSetup builds one world and returns it with its set-up time.
func timeSetup(wl *workload, seed int64) (*mpi.World, time.Duration, error) {
	freeHeap()
	t0 := time.Now()
	w, err := wl.newWorld(seed)
	return w, time.Since(t0), err
}

// runBatch builds a world and runs the workload on it to completion. A
// traced batch also records rank 0's spans and the layer counters.
func runBatch(wl *workload, seed int64, want []byte, ck *checks, traced bool, idx int) (*batchResult, error) {
	var heap0 int64
	if traced {
		heap0 = heapInUse()
	}
	w, setup, err := timeSetup(wl, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res := &batchResult{traced: traced, setup: setup}
	b := &batch{seed: seed, traced: traced, ck: ck, want: want, origin: time.Now()}
	var nicWait atomic.Int64
	if traced {
		res.worldBytes = heapInUse() - heap0
		b.tr = newTracer()
		b.tr.batch = idx
		w.Network().SetWaitObserver(func(_ int, ns int64) { nicWait.Add(ns) })
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	err = w.Run(func(c *mpi.Comm) error { return wl.body(b, c) })
	res.run = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	res.iters = b.markTimes(markIter)
	for _, d := range b.markTimes(markRedistribute) {
		res.redistribute += d
	}
	res.virt = w.MaxClock()
	agg := w.MonitorAggStats()
	res.msgs = agg.Updates
	res.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	res.events = w.EngineStats().Events
	res.nnz = b.rowNNZ.Load()
	res.k = b.k
	if traced {
		res.b = b
		res.spans = b.tr.spans
		res.folds = agg.Folds
		res.nicWait = nicWait.Load()
		for r := 0; r < w.Size(); r++ {
			for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
				res.bytes += w.Proc(r).Monitor().TotalBytes(cl)
			}
		}
		for node := 0; node < wl.nodes; node++ {
			res.xmitBytes += w.Network().XmitData(node)
		}
		res.gcCycles = ms1.NumGC - ms0.NumGC
		res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
		res.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	return res, nil
}

package main

import (
	"testing"

	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
)

func TestNonPermutationRaisesErrorRate(t *testing.T) {
	var ck checks
	if !ck.checkPermutation([]int{2, 0, 1}, 3, 0) {
		t.Fatal("a permutation failed the check")
	}
	for _, k := range [][]int{{0, 0, 1}, {0, 1, 3}, {0, 1}, {-1, 0, 1}} {
		if ck.checkPermutation(k, 3, 0) {
			t.Errorf("k=%v passed as a permutation of 3", k)
		}
	}
	if ck.attempted.Load() != 5 || ck.failed.Load() != 4 || ck.errorRate() != 0.8 {
		t.Errorf("attempted %d failed %d rate %g, want 5, 4, 0.8", ck.attempted.Load(), ck.failed.Load(), ck.errorRate())
	}
}

func TestCorruptedPayloadRaisesErrorRate(t *testing.T) {
	var ck checks
	want := reduceExpected(7, 4, 16)
	got := append([]byte(nil), want...)
	if !ck.checkAllreduce(got, want, 0, 0) {
		t.Fatal("the expected sum failed its own check")
	}
	got[9] ^= 1
	if ck.checkAllreduce(got, want, 0, 1) || ck.errorRate() != 0.5 {
		t.Errorf("a corrupted result passed (error rate %g)", ck.errorRate())
	}
	block := make([]byte, 64)
	fillBlock(block, 7, 2)
	k := []int{2, 0, 1}
	if !ck.checkRedistributed(block, 64, 7, k, 0) {
		t.Error("role k[0]'s block failed the check")
	}
	if ck.checkRedistributed(block, 64, 7, k, 1) || ck.checkRedistributed(block[:32], 64, 7, k, 0) {
		t.Error("another role's or a truncated block passed the check")
	}
	if len(ck.failures()) != 3 {
		t.Errorf("kept %d failure messages, want 3", len(ck.failures()))
	}
}

// The expected value the benchmark checks against must be what the
// runtime's Allreduce computes from the same seeded payloads.
func TestReduceExpectedMatchesAllreduce(t *testing.T) {
	const np, elems, seed = 6, 32, 11
	w, err := mpi.NewWorld(netsim.PlaFRIM(1), np)
	if err != nil {
		t.Fatal(err)
	}
	var ck checks
	want := reduceExpected(seed, np, elems)
	err = w.Run(func(c *mpi.Comm) error {
		recv := make([]byte, 8*elems)
		if err := c.Allreduce(reducePayload(seed, c.Rank(), elems), recv, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		ck.checkAllreduce(recv, want, c.Rank(), 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ck.attempted.Load() != np || ck.failed.Load() != 0 {
		t.Errorf("attempted %d failed %d: %v", ck.attempted.Load(), ck.failed.Load(), ck.failures())
	}
}

// A whole paper-loop batch counts its checks, and a wrong expected sum
// shows up as failures instead of stopping the run.
func TestPaperLoopBatchCountsFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 192-rank world")
	}
	wl, err := lookupWorkload("paper-loop")
	if err != nil {
		t.Fatal(err)
	}
	want := reduceExpected(3, wl.np, plReduceElems)
	var good checks
	br, err := runBatch(wl, 3, want, &good, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if good.failed.Load() != 0 || good.attempted.Load() == 0 {
		t.Fatalf("clean batch: %d of %d checks failed: %v", good.failed.Load(), good.attempted.Load(), good.failures())
	}
	if n := len(br.iters); n != 2*plIters+1 {
		t.Errorf("timed %d iterations, want %d", n, 2*plIters+1)
	}
	if br.redistribute <= 0 {
		t.Errorf("Redistribute timed at %v", br.redistribute)
	}
	want[0] ^= 1
	var bad checks
	if _, err := runBatch(wl, 3, want, &bad, false, 0); err != nil {
		t.Fatal(err)
	}
	if bad.errorRate() == 0 || bad.attempted.Load() != good.attempted.Load() {
		t.Errorf("corrupted expectation: error rate %g over %d checks (clean run: %d)",
			bad.errorRate(), bad.attempted.Load(), good.attempted.Load())
	}
}

// The traced batch composes the reorder step from public calls; it must
// land on the untraced batch's k, and record a span for each layer call.
func TestTracedBatchMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 192-rank world twice")
	}
	wl, err := lookupWorkload("paper-loop")
	if err != nil {
		t.Fatal(err)
	}
	want := reduceExpected(5, wl.np, plReduceElems)
	var ck checks
	plain, err := runBatch(wl, 5, want, &ck, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runBatch(wl, 5, want, &ck, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkBatches(wl, &ck, []*batchResult{plain, traced})
	if ck.failed.Load() != 0 {
		t.Fatalf("%d checks failed: %v", ck.failed.Load(), ck.failures())
	}
	calls := byName(traced.spans)
	for _, name := range []string{"app.iter", "mpi.allgather", "mpi.allreduce", "mpi.split", "mpi.bcast",
		"mpi.redistribute", "monitoring.start", "monitoring.suspend", "monitoring.gather", "treematch.map"} {
		if calls[name].Calls == 0 {
			t.Errorf("no %s span", name)
		}
	}
	if n := calls["app.iter"].Calls; n != 2*plIters+1 {
		t.Errorf("%d iteration spans, want %d", n, 2*plIters+1)
	}
}

func TestOnlineBatchRemapsOncePerPhase(t *testing.T) {
	wl, err := lookupWorkload("online-phases")
	if err != nil {
		t.Fatal(err)
	}
	var ck checks
	br, err := runBatch(wl, 1, nil, &ck, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ck.failed.Load() != 0 || ck.attempted.Load() != onPhases {
		t.Errorf("%d of %d checks failed: %v", ck.failed.Load(), ck.attempted.Load(), ck.failures())
	}
	if br.b.remaps != onPhases || len(br.iters) != onWindows {
		t.Errorf("%d remaps over %d timed windows, want %d over %d", br.b.remaps, len(br.iters), onPhases, onWindows)
	}
}

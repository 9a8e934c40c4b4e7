package pml

import (
	"math/rand"
	"sync"
	"testing"

	"mpimon/internal/commitagg"
)

// driveWorkload records the same pseudo-random traffic into a monitor:
// a sparse destination set with heavy repeats, the shape the pending
// cache serves.
func driveWorkload(m *Monitor, seed int64, msgs int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < msgs; i++ {
		class := Class(rng.Intn(int(NumClasses)))
		dst := rng.Intn(16) * 7
		size := rng.Intn(1 << 10)
		m.Record(class, dst, size, int64(i)*50)
	}
}

// requireSame asserts every reader of two monitors agrees exactly.
func requireSame(t *testing.T, eager, batched *Monitor, n int) {
	t.Helper()
	a := make([]uint64, n)
	b := make([]uint64, n)
	for class := Class(0); class < NumClasses; class++ {
		eager.Counts(class, a)
		batched.Counts(class, b)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("class %v counts[%d]: eager %d, batched %d", class, j, a[j], b[j])
			}
		}
		eager.Bytes(class, a)
		batched.Bytes(class, b)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("class %v bytes[%d]: eager %d, batched %d", class, j, a[j], b[j])
			}
		}
		if e, g := eager.TotalBytes(class), batched.TotalBytes(class); e != g {
			t.Fatalf("class %v TotalBytes: eager %d, batched %d", class, e, g)
		}
		et, bt := eager.Touched(class), batched.Touched(class)
		es := map[int]bool{}
		for _, d := range et {
			es[d] = true
		}
		if len(et) != len(bt) {
			t.Fatalf("class %v touched: eager %d peers, batched %d", class, len(et), len(bt))
		}
		for _, d := range bt {
			if !es[d] {
				t.Fatalf("class %v: batched touched %d, eager did not", class, d)
			}
		}
	}
}

// TestBatchedMatchesEager pins barrier exactness: a batched monitor read
// at any point reports exactly what an eager one does, for every policy
// in the grid.
func TestBatchedMatchesEager(t *testing.T) {
	const n = 128
	pols := []commitagg.Policy{
		commitagg.Default(),
		{Threshold: 4, IntervalNs: -1},
		{Threshold: 1 << 20, IntervalNs: 100},
		{Threshold: 7, IntervalNs: 333},
	}
	for _, pol := range pols {
		eager, batched := NewMonitor(n, Distinct), NewMonitor(n, Distinct)
		batched.SetCommitPolicy(pol)
		driveWorkload(eager, 7, 5000)
		driveWorkload(batched, 7, 5000)
		requireSame(t, eager, batched, n)
		// Reading mid-stream must not disturb subsequent exactness.
		driveWorkload(eager, 11, 1000)
		driveWorkload(batched, 11, 1000)
		requireSame(t, eager, batched, n)
	}
}

// TestSetCommitPolicyEagerRestoresDirectPath pins that an eager policy
// turns the pending cache off after folding what it held.
func TestSetCommitPolicyEagerRestoresDirectPath(t *testing.T) {
	m := NewMonitor(8, Distinct)
	m.SetCommitPolicy(commitagg.Policy{Threshold: 1000, IntervalNs: -1})
	m.Record(P2P, 3, 100, 0)
	if !m.batched {
		t.Fatal("batched policy did not enable the pending cache")
	}
	m.SetCommitPolicy(commitagg.Eager)
	if m.batched {
		t.Fatal("eager policy left the pending cache enabled")
	}
	if got := m.TotalBytes(P2P); got != 100 {
		t.Fatalf("TotalBytes after policy switch = %d, want 100 (pending fold lost)", got)
	}
	if !m.CommitPolicy().Eager() {
		t.Fatal("CommitPolicy not eager after SetCommitPolicy(Eager)")
	}
}

// TestResetDiscardsPending pins the epoch semantics: Reset throws pending
// deltas away instead of folding them into the fresh epoch.
func TestResetDiscardsPending(t *testing.T) {
	m := NewMonitor(8, Distinct)
	m.SetCommitPolicy(commitagg.Policy{Threshold: 1000, IntervalNs: -1})
	m.Record(P2P, 2, 64, 0)
	m.Reset()
	if got := m.TotalBytes(P2P); got != 0 {
		t.Fatalf("TotalBytes after Reset = %d, want 0", got)
	}
	out := make([]uint64, 8)
	m.Counts(P2P, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("counts[%d] after Reset = %d, want 0", i, v)
		}
	}
}

// TestBatchedFoldRatio pins that a heavy-churn repeat-destination workload
// amortizes folds: far fewer folds than logical updates.
func TestBatchedFoldRatio(t *testing.T) {
	m := NewMonitor(64, Distinct)
	m.SetCommitPolicy(commitagg.Default())
	// A 4-neighbour halo exchange: all traffic to the same few slots.
	for i := 0; i < 10000; i++ {
		m.Record(P2P, []int{1, 8, 9, 16}[i%4], 1024, int64(i))
	}
	m.flushPending()
	st := m.AggStats()
	if st.Updates != 10000 {
		t.Fatalf("AggStats.Updates = %d, want 10000", st.Updates)
	}
	if ratio := st.UpdatesPerFold(); ratio < 5 {
		t.Fatalf("updates/fold = %.1f, want >= 5 (commit batching not amortizing)", ratio)
	}
}

// TestBatchedEviction pins the eviction path: a working set wider than
// the pending cache still counts exactly, every destination.
func TestBatchedEviction(t *testing.T) {
	const peers = pendSlots * 3 // forces round-robin eviction every message
	m := NewMonitor(64, Distinct)
	m.SetCommitPolicy(commitagg.Policy{Threshold: 1 << 20, IntervalNs: -1})
	for i := 0; i < 100; i++ {
		for d := 0; d < peers; d++ {
			m.Record(P2P, d, 10+d, int64(i))
		}
	}
	cnt := make([]uint64, 64)
	byt := make([]uint64, 64)
	m.Counts(P2P, cnt)
	m.Bytes(P2P, byt)
	for d := 0; d < peers; d++ {
		if cnt[d] != 100 || byt[d] != uint64(100*(10+d)) {
			t.Fatalf("dst %d: cnt=%d byt=%d, want 100/%d", d, cnt[d], byt[d], 100*(10+d))
		}
	}
}

// TestBatchedHaloNeighboursNoEviction pins that a power-of-two stride
// halo (r±1, r±gx with gx a multiple of 8 — the pattern that thrashes a
// direct-mapped index) fits the associative cache without evictions.
func TestBatchedHaloNeighboursNoEviction(t *testing.T) {
	m := NewMonitor(64, Distinct)
	m.SetCommitPolicy(commitagg.Policy{Threshold: 1 << 20, IntervalNs: -1})
	const r, gx = 24, 8
	for i := 0; i < 1000; i++ {
		for _, d := range []int{r - 1, r + 1, r - gx, r + gx} {
			m.Record(P2P, d, 8, int64(i))
		}
	}
	if folds := m.AggStats().Folds; folds != 0 {
		t.Fatalf("4-neighbour halo caused %d early folds, want 0 before a barrier", folds)
	}
	if got := m.TotalBytes(P2P); got != 4*1000*8 {
		t.Fatalf("TotalBytes = %d, want %d", got, 4*1000*8)
	}
}

// TestBatchedConcurrentReaders races readers (flush barriers) against a
// recording writer; the final total must be exact. Run with -race.
func TestBatchedConcurrentReaders(t *testing.T) {
	m := NewMonitor(32, Distinct)
	m.SetCommitPolicy(commitagg.Default())
	const msgs = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]uint64, 32)
		for {
			select {
			case <-stop:
				return
			default:
				m.Counts(P2P, out)
				m.TotalBytes(P2P)
				m.Touched(P2P)
			}
		}
	}()
	for i := 0; i < msgs; i++ {
		m.Record(P2P, i%5, 8, int64(i))
	}
	close(stop)
	wg.Wait()
	if got := m.TotalBytes(P2P); got != msgs*8 {
		t.Fatalf("TotalBytes = %d, want %d", got, msgs*8)
	}
}

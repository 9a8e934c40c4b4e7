package pml

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"mpimon/internal/commitagg"
)

// oracle is the plain-map model of a monitor's counters: what every
// reader must report after the same sequence of Records.
type oracle struct {
	cnt, byt [NumClasses]map[int]uint64
	order    [NumClasses][]int // first-touch order
}

func newOracle() *oracle {
	o := &oracle{}
	o.reset()
	return o
}

func (o *oracle) reset() {
	for cl := range o.cnt {
		o.cnt[cl] = map[int]uint64{}
		o.byt[cl] = map[int]uint64{}
		o.order[cl] = nil
	}
}

func (o *oracle) record(class Class, dst, size int) {
	if _, ok := o.cnt[class][dst]; !ok {
		o.order[class] = append(o.order[class], dst)
	}
	o.cnt[class][dst]++
	o.byt[class][dst] += uint64(size)
}

// driveBoth records the same random workload into the monitor and the
// oracle: a sparse destination set with repeats, spread over the classes.
func driveBoth(m *Monitor, o *oracle, rng *rand.Rand, n, msgs int) {
	for i := 0; i < msgs; i++ {
		class := Class(rng.Intn(int(NumClasses)))
		dst := rng.Intn(20) * (n / 20)
		size := rng.Intn(1 << 12)
		m.Record(class, dst, size, int64(i)*50)
		o.record(class, dst, size)
	}
}

// requireOracle checks every reader of m against the oracle. exactOrder
// demands Touched in first-touch order; a batched monitor folds pending
// deltas in cache order, so there only the set is pinned.
func requireOracle(t *testing.T, m *Monitor, o *oracle, exactOrder bool) {
	t.Helper()
	n := m.Size()
	row := make([]uint64, n)
	for class := Class(0); class < NumClasses; class++ {
		for i := range row {
			row[i] = ^uint64(0)
		}
		m.Counts(class, row)
		for dst, v := range row {
			if v != o.cnt[class][dst] {
				t.Fatalf("class %v Counts[%d] = %d, oracle %d", class, dst, v, o.cnt[class][dst])
			}
		}
		m.Bytes(class, row)
		var total uint64
		for dst, v := range row {
			if v != o.byt[class][dst] {
				t.Fatalf("class %v Bytes[%d] = %d, oracle %d", class, dst, v, o.byt[class][dst])
			}
			total += v
		}
		if got := m.TotalBytes(class); got != total {
			t.Fatalf("class %v TotalBytes = %d, oracle %d", class, got, total)
		}

		got, want := m.Touched(class), append([]int(nil), o.order[class]...)
		if !exactOrder {
			sort.Ints(got)
			sort.Ints(want)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("class %v Touched = %v, oracle %v", class, got, want)
		}

		// Touched peers plus two untouched ones, which must read zero
		// whatever the output held before.
		peers := append(m.Touched(class), 1, n-1)
		at := make([]uint64, len(peers))
		for i := range at {
			at[i] = ^uint64(0)
		}
		m.CountsAt(class, peers, at)
		for i, p := range peers {
			if at[i] != o.cnt[class][p] {
				t.Fatalf("class %v CountsAt(%d) = %d, oracle %d", class, p, at[i], o.cnt[class][p])
			}
		}
		for i := range at {
			at[i] = ^uint64(0)
		}
		m.BytesAt(class, peers, at)
		for i, p := range peers {
			if at[i] != o.byt[class][p] {
				t.Fatalf("class %v BytesAt(%d) = %d, oracle %d", class, p, at[i], o.byt[class][p])
			}
		}
	}
}

func requirePanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

// TestMonitorMatchesOracle drives a monitor and the plain-map oracle with
// the same random workload, eager and batched, and requires every reader
// to agree — before and after a Reset followed by re-recording.
func TestMonitorMatchesOracle(t *testing.T) {
	const n = 300
	pols := map[string]commitagg.Policy{
		"eager":   commitagg.Eager,
		"default": commitagg.Default(),
		"tight":   {Threshold: 5, IntervalNs: 333},
	}
	for name, pol := range pols {
		t.Run(name, func(t *testing.T) {
			m := NewMonitor(n, Distinct)
			m.SetCommitPolicy(pol)
			o := newOracle()
			rng := rand.New(rand.NewSource(3))
			driveBoth(m, o, rng, n, 5000)
			requireOracle(t, m, o, pol.Eager())
			// Reading mid-stream must not disturb later exactness.
			driveBoth(m, o, rng, n, 1000)
			requireOracle(t, m, o, pol.Eager())

			m.Reset()
			o.reset()
			requireOracle(t, m, o, true)
			driveBoth(m, o, rng, n, 2000)
			requireOracle(t, m, o, pol.Eager())

			requirePanics(t, "record-oob", func() { m.Record(P2P, n, 1, 0) })
			requirePanics(t, "record-negative", func() { m.Record(P2P, -1, 1, 0) })
			requirePanics(t, "counts-short", func() { m.Counts(P2P, make([]uint64, n-1)) })
			requirePanics(t, "countsat-oob", func() { m.CountsAt(Coll, []int{n}, make([]uint64, 1)) })
			requirePanics(t, "bytesat-negative", func() { m.BytesAt(Osc, []int{-1}, make([]uint64, 1)) })
			// A reader that panicked must not leave its table locked.
			requireOracle(t, m, o, pol.Eager())
		})
	}
}

// TestSparseMemoryScales checks that a monitor costs O(touched peers),
// not O(world): building one for a 65536-rank world and recording to 8
// peers allocates a few KiB, where a per-rank array would take MiBs.
func TestSparseMemoryScales(t *testing.T) {
	const reps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var m *Monitor
	for r := 0; r < reps; r++ {
		m = NewMonitor(1<<16, Distinct)
		for p := 0; p < 8; p++ {
			m.Record(P2P, p*1000, 100, 0)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reps; per > 16<<10 {
		t.Fatalf("monitor for 65536 ranks with 8 peers allocated %d B, want O(touched) <= 16 KiB", per)
	}
	if got := len(m.Touched(P2P)); got != 8 {
		t.Fatalf("touched %d peers, want 8", got)
	}
	out := make([]uint64, 8)
	m.CountsAt(P2P, m.Touched(P2P), out)
	for i, v := range out {
		if v != 1 {
			t.Fatalf("peer %d count %d, want 1", i, v)
		}
	}
}

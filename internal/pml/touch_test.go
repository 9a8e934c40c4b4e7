package pml

import (
	"sort"
	"sync"
	"testing"
)

// TestTouchedTracksFirstTouch checks the sparse read surface against the
// dense one: Touched lists exactly the peers with recorded traffic, and
// CountsAt/BytesAt over that list agree with Counts/Bytes.
func TestTouchedTracksFirstTouch(t *testing.T) {
	n := 64
	m := NewMonitor(n, Distinct)
	peers := []int{3, 17, 3, 60, 17, 5}
	for i, p := range peers {
		m.Record(P2P, p, 100+i, 0)
	}
	m.Record(Coll, 9, 7, 0)

	got := m.Touched(P2P)
	want := []int{3, 17, 60, 5} // first-touch order, duplicates collapsed
	if len(got) != len(want) {
		t.Fatalf("Touched(P2P) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Touched(P2P) = %v, want %v", got, want)
		}
	}
	if c := m.Touched(Coll); len(c) != 1 || c[0] != 9 {
		t.Fatalf("Touched(Coll) = %v, want [9]", c)
	}
	if o := m.Touched(Osc); len(o) != 0 {
		t.Fatalf("Touched(Osc) = %v, want empty", o)
	}

	dense := make([]uint64, n)
	m.Counts(P2P, dense)
	sparse := make([]uint64, len(got))
	m.CountsAt(P2P, got, sparse)
	for i, p := range got {
		if sparse[i] != dense[p] {
			t.Fatalf("CountsAt peer %d = %d, dense says %d", p, sparse[i], dense[p])
		}
	}
	m.Bytes(P2P, dense)
	m.BytesAt(P2P, got, sparse)
	for i, p := range got {
		if sparse[i] != dense[p] {
			t.Fatalf("BytesAt peer %d = %d, dense says %d", p, sparse[i], dense[p])
		}
	}
}

func TestResetClearsTouchState(t *testing.T) {
	m := NewMonitor(8, Distinct)
	m.Record(P2P, 1, 10, 0)
	m.Record(Coll, 2, 10, 0)
	m.Reset()
	for _, cl := range []Class{P2P, Coll, Osc} {
		if got := m.Touched(cl); len(got) != 0 {
			t.Fatalf("Touched(%v) after Reset = %v", cl, got)
		}
	}
	// The touch machinery must come back cleanly after the wipe.
	m.Record(P2P, 5, 1, 0)
	if got := m.Touched(P2P); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Touched after Reset+Record = %v, want [5]", got)
	}
}

// TestConcurrentFirstTouch races many goroutines over a small peer set so
// first touches (a new cell appended to the class table) contend, then
// checks the table holds each touched peer exactly once.
func TestConcurrentFirstTouch(t *testing.T) {
	n := 32
	m := NewMonitor(n, Distinct)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Record(P2P, (g+i)%n, 8, 0)
			}
		}(g)
	}
	wg.Wait()
	got := m.Touched(P2P)
	sort.Ints(got)
	if len(got) != n {
		t.Fatalf("touched %d peers, want %d: %v", len(got), n, got)
	}
	for i, p := range got {
		if p != i {
			t.Fatalf("peer list has gaps or duplicates: %v", got)
		}
	}
	dense := make([]uint64, n)
	m.Counts(P2P, dense)
	var total uint64
	for _, c := range dense {
		total += c
	}
	if total != 8*200 {
		t.Fatalf("total count %d, want %d", total, 8*200)
	}
}

func TestCopyAtPanics(t *testing.T) {
	m := NewMonitor(4, Distinct)
	for name, fn := range map[string]func(){
		"short-out":     func() { m.CountsAt(P2P, []int{1, 2}, make([]uint64, 1)) },
		"peer-oob":      func() { m.CountsAt(P2P, []int{4}, make([]uint64, 1)) },
		"peer-negative": func() { m.BytesAt(P2P, []int{-1}, make([]uint64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

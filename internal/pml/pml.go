// Package pml is the low-level message monitoring component of the runtime,
// mirroring the pml_monitoring component that prior work (Bosilca et al.,
// Euro-Par 2017) added to Open MPI's point-to-point management layer. It
// hangs below the MPI API, at the point where every message — including the
// point-to-point messages a collective decomposes into — is handed to the
// transport, and counts messages and bytes per destination rank and per
// communication class.
//
// The introspection library (package monitoring) never reads these counters
// directly; it goes through the MPI_T emulation in package mpit, preserving
// the paper's layering.
package pml

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mpimon/internal/commitagg"
)

// Class tells which kind of MPI operation produced a message. Collective
// operations are observed after decomposition: a broadcast of one MB to
// eight ranks shows up here as the individual tree messages of class Coll,
// not as one API-level event — the central feature of the paper.
type Class int

const (
	// P2P is a user-issued point-to-point message.
	P2P Class = iota
	// Coll is a point-to-point message issued internally by a collective
	// operation's decomposition.
	Coll
	// Osc is a one-sided (RMA) data transfer.
	Osc

	// NumClasses is the number of communication classes.
	NumClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case P2P:
		return "p2p"
	case Coll:
		return "coll"
	case Osc:
		return "osc"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Level is the monitoring activation level, mirroring the
// --mca pml_monitoring_enable values of the paper.
type Level int32

const (
	// Disabled records nothing.
	Disabled Level = 0
	// Aggregate records counts and sizes without distinguishing
	// library-issued (internal) from user-issued (external) messages.
	Aggregate Level = 1
	// Distinct additionally distinguishes message classes, so internal
	// collective traffic can be told apart from user point-to-point.
	Distinct Level = 2
)

// Recorder observes individual monitored messages (communication class,
// destination world rank, payload bytes, virtual timestamp in ns). The
// class is the one the monitor records, i.e. already folded to P2P at
// level Aggregate. Recorders see only what the counters see: nothing at
// level Disabled and nothing while recording is suppressed.
type Recorder func(class Class, dst, bytes int, when int64)

// Monitor holds the per-process counters. One Monitor belongs to one MPI
// process; counters are written on the sender side only, at the moment the
// message is buffered for transmission. All methods are safe for concurrent
// use.
//
// Any number of recorders can observe the monitor simultaneously (the
// post-mortem tracer, the hardware-counter collector and the telemetry
// metrics all hang off the same run); the hot path reads an immutable
// snapshot of the recorder list, so fan-out costs one pointer load when no
// recorder is installed.
type Monitor struct {
	n        int
	level    atomic.Int32
	suppress atomic.Int32

	recMu     sync.Mutex
	recNext   int
	recIDs    []int
	recorders atomic.Pointer[[]Recorder]

	// tab holds one counter table per class. Each table is sized by the
	// peers actually touched, so per-process monitoring memory is
	// O(touched) at every world size: real applications talk to a few
	// neighbours, not to the whole world.
	tab [NumClasses]table

	// batched is set by a non-eager commit policy (SetCommitPolicy):
	// Record then accumulates into each table's pending cache, and the
	// cells see one merged fold per policy threshold/interval —
	// committing information, not traffic. Every read path flushes first
	// so barriers (session Suspends, gathers) observe exact counters.
	batched bool
	pol     commitagg.Policy

	// Batched-fold accounting (logical updates vs. folds into the cells),
	// the commit-ratio the benchmarks report.
	statUpdates atomic.Uint64
	statCommits atomic.Uint64
	statFolds   atomic.Uint64
}

// cell holds the two counters of one (class, destination) pair. The
// pending cache reuses it for not-yet-folded deltas, with dst = -1 marking
// an empty slot.
type cell struct {
	dst      int32
	cnt, byt uint64
}

// pendSlots is the per-class pending-cache size. 8 slots cover the
// O(degree) neighbourhoods of stencil-style applications; beyond that
// the round-robin victim folds early, which costs folds but never
// correctness.
const pendSlots = 8

// table is one class's counters: a cell for every destination touched
// since the monitor was created (or last Reset), in first-touch order,
// fronted by the class's pending cache under a batched policy. One mutex
// guards both; the monitor belongs to one process, so it never contends
// in steady state, and readers are rare gather-time barriers.
//
// The pending cache is fully associative. A direct-mapped index thrashes
// whenever two halo neighbours share low bits (r-gx and r+gx collide for
// any gx ≡ 0 mod slots), while a linear scan of 8 entries is a handful of
// compares and never displaces a neighbourhood of degree ≤ 8.
type table struct {
	mu    sync.Mutex
	cells []cell
	index map[int32]int32 // dst -> position in cells; no pointers inside, so the GC never scans it

	n     int   // logical updates since the last full fold
	since int64 // clock of the last full fold
	vic   int   // round-robin eviction cursor for degree > pendSlots
	slots [pendSlots]cell
}

// NewMonitor builds a monitor for a world of n ranks at the given level.
func NewMonitor(n int, level Level) *Monitor {
	m := &Monitor{n: n}
	for cl := range m.tab {
		for i := range m.tab[cl].slots {
			m.tab[cl].slots[i].dst = -1
		}
	}
	m.level.Store(int32(level))
	return m
}

// Size returns the number of destination ranks tracked.
func (m *Monitor) Size() int { return m.n }

// Level returns the current activation level.
func (m *Monitor) Level() Level { return Level(m.level.Load()) }

// SetLevel changes the activation level at run time.
func (m *Monitor) SetLevel(l Level) { m.level.Store(int32(l)) }

// Suppress temporarily pauses recording while the introspection library
// performs its own collective operations (gathering monitored data must not
// pollute the data, cf. the paper's Sec. 4.1). Calls nest.
func (m *Monitor) Suppress() { m.suppress.Add(1) }

// Unsuppress reverses one Suppress call.
func (m *Monitor) Unsuppress() {
	if m.suppress.Add(-1) < 0 {
		panic("pml: Unsuppress without matching Suppress")
	}
}

// AddRecorder registers a per-message observer and returns an id for
// RemoveRecorder. Recorders are invoked in registration order on the
// sender's goroutine.
func (m *Monitor) AddRecorder(r Recorder) int {
	if r == nil {
		panic("pml: AddRecorder(nil)")
	}
	m.recMu.Lock()
	defer m.recMu.Unlock()
	id := m.recNext
	m.recNext++
	m.recIDs = append(m.recIDs, id)
	old := m.recorders.Load()
	var rs []Recorder
	if old != nil {
		rs = append(rs, *old...)
	}
	rs = append(rs, r)
	m.recorders.Store(&rs)
	return id
}

// RemoveRecorder unregisters the recorder with the given id; unknown ids
// are ignored (removing twice is harmless).
func (m *Monitor) RemoveRecorder(id int) {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	old := m.recorders.Load()
	if old == nil {
		return
	}
	for i, have := range m.recIDs {
		if have == id {
			m.recIDs = append(m.recIDs[:i], m.recIDs[i+1:]...)
			rs := make([]Recorder, 0, len(*old)-1)
			rs = append(rs, (*old)[:i]...)
			rs = append(rs, (*old)[i+1:]...)
			if len(rs) == 0 {
				m.recorders.Store(nil)
			} else {
				m.recorders.Store(&rs)
			}
			return
		}
	}
}

// SetCommitPolicy installs (or removes) a commit-on-threshold front in
// front of the per-peer counters. An eager policy (Threshold <= 1) folds
// any pending deltas and restores the direct per-message path; a batched
// policy makes Record accumulate into a small per-class pending cache
// that folds into the cells only on threshold, interval or a read
// barrier. Totals observed by any reader are bit-identical either way.
func (m *Monitor) SetCommitPolicy(p commitagg.Policy) {
	m.flushPending()
	m.batched = !p.Eager()
	m.pol = p.Norm()
}

// CommitPolicy returns the monitor's current commit policy.
func (m *Monitor) CommitPolicy() commitagg.Policy {
	if !m.batched {
		return commitagg.Eager
	}
	return m.pol
}

// AggStats returns the batched-fold counters: logical updates accepted,
// commit rounds, and folds into the cells. With batching disabled the
// stats stay zero (the direct path does not count).
func (m *Monitor) AggStats() commitagg.Stats {
	return commitagg.Stats{
		Updates: m.statUpdates.Load(),
		Commits: m.statCommits.Load(),
		Folds:   m.statFolds.Load(),
	}
}

// Record counts one outgoing message of the given class to the destination
// world rank. when is the sender's virtual clock (ns) at buffering time.
// At level Aggregate the class distinction is dropped (everything counts as
// P2P), mirroring pml_monitoring_enable=1's "no distinction between user
// issued and library issued messages".
func (m *Monitor) Record(class Class, dst int, size int, when int64) {
	switch Level(m.level.Load()) {
	case Disabled:
		return
	case Aggregate:
		class = P2P
	}
	if m.suppress.Load() > 0 {
		return
	}
	if uint(dst) >= uint(m.n) {
		panic(fmt.Sprintf("pml: destination %d outside world of %d", dst, m.n))
	}
	t := &m.tab[class]
	t.mu.Lock()
	if m.batched {
		m.recordBatched(t, int32(dst), uint64(size), when)
	} else {
		t.fold(int32(dst), 1, uint64(size))
	}
	t.mu.Unlock()
	if rs := m.recorders.Load(); rs != nil {
		for _, r := range *rs {
			r(class, dst, size, when)
		}
	}
}

// recordBatched accumulates one message into the table's pending cache:
// a repeat send to a cached neighbour (the stencil/halo steady state)
// only bumps its slot. A destination beyond the cache's capacity evicts
// the round-robin victim into the cells. A full fold of the class fires
// when the policy threshold or interval trips. Caller holds t.mu.
func (m *Monitor) recordBatched(t *table, dst int32, size uint64, when int64) {
	var s *cell
	for i := range t.slots {
		e := &t.slots[i]
		if e.dst == dst {
			s = e
			break
		}
		if e.dst == -1 && s == nil {
			s = e
		}
	}
	switch {
	case s == nil: // cache full of other destinations: evict one
		s = &t.slots[t.vic]
		t.vic = (t.vic + 1) & (pendSlots - 1)
		t.fold(s.dst, s.cnt, s.byt)
		m.statFolds.Add(1)
		*s = cell{dst: dst, cnt: 1, byt: size}
	case s.dst == dst:
		s.cnt++
		s.byt += size
	default: // claimed an empty slot
		*s = cell{dst: dst, cnt: 1, byt: size}
	}
	t.n++
	m.statUpdates.Add(1)
	if t.n >= m.pol.Threshold ||
		(m.pol.IntervalNs > 0 && when-t.since >= m.pol.IntervalNs) {
		m.foldPendingLocked(t, when)
	}
}

// foldPendingLocked folds every occupied pending slot of one table into
// its cells and resets the table's trigger state. Caller holds t.mu.
func (m *Monitor) foldPendingLocked(t *table, when int64) {
	for i := range t.slots {
		s := &t.slots[i]
		if s.dst >= 0 {
			t.fold(s.dst, s.cnt, s.byt)
			m.statFolds.Add(1)
			*s = cell{dst: -1}
		}
	}
	t.n = 0
	t.since = when
	m.statCommits.Add(1)
}

// flushPending folds every class's pending deltas into its cells — the
// read barrier. Every reader (Touched, Counts, CountsAt, TotalBytes, the
// MPI_T handles above, the session gathers above those) goes through it,
// which is what makes batched totals bit-identical to eager ones at every
// observation point.
func (m *Monitor) flushPending() {
	if !m.batched {
		return
	}
	for cl := range m.tab {
		t := &m.tab[cl]
		t.mu.Lock()
		if t.n > 0 {
			m.foldPendingLocked(t, t.since)
		}
		t.mu.Unlock()
	}
}

// fold merges an accumulated (count, bytes) delta for one destination
// into the cells — the single write path shared by the eager per-message
// route (cnt=1) and the batched folds. Caller holds t.mu.
func (t *table) fold(dst int32, cnt, byt uint64) {
	i, ok := t.index[dst]
	if !ok {
		if t.index == nil {
			t.index = make(map[int32]int32)
		}
		i = int32(len(t.cells))
		t.index[dst] = i
		t.cells = append(t.cells, cell{dst: dst})
	}
	c := &t.cells[i]
	c.cnt += cnt
	c.byt += byt
}

// read flushes the pending deltas and returns the class's table locked;
// the caller unlocks it.
func (m *Monitor) read(class Class) *table {
	m.flushPending()
	t := &m.tab[class]
	t.mu.Lock()
	return t
}

// get returns one of the cell's two counters.
func (c *cell) get(wantBytes bool) uint64 {
	if wantBytes {
		return c.byt
	}
	return c.cnt
}

// Counts copies the per-destination message counts of one class into out,
// which must have length Size().
func (m *Monitor) Counts(class Class, out []uint64) {
	m.copyRow(class, out, false)
}

// Bytes copies the per-destination byte counts of one class into out.
func (m *Monitor) Bytes(class Class, out []uint64) {
	m.copyRow(class, out, true)
}

func (m *Monitor) copyRow(class Class, out []uint64, wantBytes bool) {
	if len(out) != m.n {
		panic(fmt.Sprintf("pml: output slice has length %d, want %d", len(out), m.n))
	}
	clear(out)
	t := m.read(class)
	defer t.mu.Unlock()
	for i := range t.cells {
		out[t.cells[i].dst] = t.cells[i].get(wantBytes)
	}
}

// Touched returns the destination ranks with any traffic recorded for the
// class since the monitor was created (or last Reset), in first-touch
// order. The result is a fresh slice; its length is the number of peers
// touched, so callers iterating it pay O(touched), not O(world).
func (m *Monitor) Touched(class Class) []int {
	t := m.read(class)
	defer t.mu.Unlock()
	out := make([]int, len(t.cells))
	for i := range t.cells {
		out[i] = int(t.cells[i].dst)
	}
	return out
}

// CountsAt reads the message counters of one class at the given
// destinations into out (parallel to peers).
func (m *Monitor) CountsAt(class Class, peers []int, out []uint64) {
	m.copyAt(class, peers, out, false)
}

// BytesAt reads the byte counters of one class at the given destinations
// into out (parallel to peers).
func (m *Monitor) BytesAt(class Class, peers []int, out []uint64) {
	m.copyAt(class, peers, out, true)
}

func (m *Monitor) copyAt(class Class, peers []int, out []uint64, wantBytes bool) {
	if len(out) != len(peers) {
		panic(fmt.Sprintf("pml: output slice has length %d for %d peers", len(out), len(peers)))
	}
	t := m.read(class)
	defer t.mu.Unlock()
	for i, p := range peers {
		if p < 0 || p >= m.n {
			panic(fmt.Sprintf("pml: peer %d outside world of %d", p, m.n))
		}
		out[i] = 0
		if j, ok := t.index[int32(p)]; ok {
			out[i] = t.cells[j].get(wantBytes)
		}
	}
}

// TotalBytes returns the total bytes recorded for one class.
func (m *Monitor) TotalBytes(class Class) uint64 {
	t := m.read(class)
	defer t.mu.Unlock()
	var s uint64
	for i := range t.cells {
		s += t.cells[i].byt
	}
	return s
}

// Reset zeroes every counter and forgets the touched peers, keeping the
// tables' capacity for the next epoch. Pending batched deltas are
// discarded, not folded: Reset starts a new epoch and traffic recorded
// before it does not belong there.
func (m *Monitor) Reset() {
	for cl := range m.tab {
		t := &m.tab[cl]
		t.mu.Lock()
		t.cells = t.cells[:0]
		clear(t.index)
		for i := range t.slots {
			t.slots[i] = cell{dst: -1}
		}
		t.n = 0
		t.mu.Unlock()
	}
}

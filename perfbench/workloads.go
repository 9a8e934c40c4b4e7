package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/online"
	"mpimon/internal/reorder"
	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
)

// mappingCharge is the virtual time charged to rank 0 for computing a
// mapping, in place of the measured host time, so the modelled run time
// does not depend on how fast the host is.
const mappingCharge = time.Millisecond

// workload is one closed batch job: one world of np ranks, built from the
// seed, run to completion by body.
type workload struct {
	name  string
	np    int
	nodes int
	// event selects mpi.EngineEvent; its virtual clocks and counts are
	// exact, so they are pinned across batches instead of just reported.
	event bool
	// rowNNZ, when set, is the analytic entry count of the monitored
	// matrix, checked against every rank's monitored row.
	rowNNZ int
	place  func(topo *topology.Topology, np int, seed int64) ([]int, error)
	body   func(b *batch, c *mpi.Comm) error
}

func roundRobin(topo *topology.Topology, np int, _ int64) ([]int, error) {
	return treematch.PlacementRoundRobin(np, topo)
}

func randomPlacement(topo *topology.Topology, np int, seed int64) ([]int, error) {
	return treematch.PlacementRandom(np, topo, seed)
}

// Workload parameters. The sizes give each batch a few hundred
// milliseconds (paper-loop, online-phases) to ten seconds (stencil-4k) of
// host time on a 2-core host, and each run at least 200 timed iterations.
const (
	plGroup       = 24       // paper-loop group size: one PlaFRIM node
	plGatherBytes = 64 << 10 // per-rank AllgatherN contribution
	plReduceElems = 1024     // 8 KiB of int64 per Allreduce
	plIters       = 100      // iterations before and after the reorder

	stGrid     = 64 // 64x64 halo grid, np = 4096
	stMsgBytes = 4 << 10
	stIters    = 200 // halo steps before and after the reorder
	stHaloTag  = 9<<19 + 41
	stateBytes = 4 << 10 // per-role block moved by Redistribute
	onGroups   = 4
	onChunk    = 128 << 10
	onPhases   = 4
	onPerPhase = 6 // windows between pattern flips
	onWindows  = onPhases * onPerPhase
	timedRank  = 0 // the world rank whose spans and virtual clock are recorded
)

// The workloads load different layers: paper-loop is the paper's loop,
// where collectives, NIC contention and the pml fold do the work;
// stencil-4k drives the event engine, AnySource matching, the largest
// dense monitor and the reorder step at scale; online-phases reads the
// monitoring layer every window instead of once.
var workloads = []*workload{
	{
		name:  "paper-loop",
		np:    192,
		nodes: 8,
		place: roundRobin,
		body:  paperLoop,
	},
	{
		name:   "stencil-4k",
		np:     stGrid * stGrid,
		nodes:  171,
		event:  true,
		rowNNZ: stencilNNZ,
		place:  randomPlacement,
		body:   stencil4k,
	},
	{
		name:  "online-phases",
		np:    96,
		nodes: 4,
		place: roundRobin,
		body:  onlinePhases,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newWorld builds the workload's world (the set-up the benchmark times).
func (wl *workload) newWorld(seed int64) (*mpi.World, error) {
	mach := netsim.PlaFRIM(wl.nodes)
	place, err := wl.place(mach.Topo, wl.np, seed)
	if err != nil {
		return nil, err
	}
	opts := []mpi.Option{mpi.WithPlacement(place)}
	if wl.event {
		opts = append(opts, mpi.WithEngine(mpi.EngineEvent))
	}
	return mpi.NewWorld(mach, wl.np, opts...)
}

// batch is the state one world's run shares across its ranks. Fields
// below the mutex are written by one rank at a time (rank 0, or the
// deciding rank of an online window) and read after Run returns.
type batch struct {
	seed   int64
	traced bool
	ck     *checks
	want   []byte // expected Allreduce result (paper-loop)
	tr     *tracer
	rowNNZ atomic.Int64

	// The timeline: every rank passes the same sequence of marks (the end
	// of an iteration, of Redistribute, or of a step between them); ends[i]
	// is when the last rank passed mark i, in ns since origin.
	origin time.Time
	ends   [maxMarks]atomic.Int64
	nMarks atomic.Int64
	kinds  [maxMarks]markKind // written by the timed rank

	mu          sync.Mutex
	k           []int
	gathers     int
	gatherWire  int
	gatherNNZ   int
	costBefore  float64
	costAfter   float64
	virtPre     time.Duration
	virtReorder time.Duration
	virtPost    time.Duration
	stepSelf    time.Duration
	remaps      int
}

// maxMarks bounds the marks one batch passes; the longest workload,
// stencil-4k, passes 2*stIters+4.
const maxMarks = 1024

// markKind says what ends at a mark.
type markKind uint8

const (
	markStep markKind = iota
	markIter
	markRedistribute
)

// markTimes returns the host time of each interval that ends at a mark of
// the kind: from the last rank passing the previous mark to the last rank
// passing this one. Timing the whole world rather than one rank matters on
// the event engine, where a rank whose neighbours' messages are already
// queued finishes its step without waiting for the rest of the world.
func (b *batch) markTimes(kind markKind) []time.Duration {
	var out []time.Duration
	n := int(b.nMarks.Load())
	for i := 1; i < n; i++ {
		if b.kinds[i] == kind {
			out = append(out, time.Duration(b.ends[i].Load()-b.ends[i-1].Load()))
		}
	}
	return out
}

// rankRun is one rank's handle on the batch: its mark counter and, on the
// traced rank of a traced batch, the tracer (nil everywhere else).
type rankRun struct {
	b     *batch
	tr    *tracer
	timed bool
	n     int
}

func (b *batch) rank(c *mpi.Comm) *rankRun {
	r := &rankRun{b: b, timed: c.Proc().Rank() == timedRank}
	if r.timed {
		r.tr = b.tr
	}
	return r
}

// mark records that this rank passed its next mark.
func (r *rankRun) mark(kind markKind) {
	b := r.b
	if r.n >= maxMarks {
		panic("perfbench: more than maxMarks marks in one batch")
	}
	now := int64(time.Since(b.origin))
	for {
		cur := b.ends[r.n].Load()
		if now <= cur || b.ends[r.n].CompareAndSwap(cur, now) {
			break
		}
	}
	if r.timed {
		b.kinds[r.n] = kind
		b.nMarks.Store(int64(r.n + 1))
	}
	r.n++
}

// iter runs one application iteration and marks its end.
func (r *rankRun) iter(it int, fn func(tr *tracer) error) error {
	err := r.tr.do("app.iter", it, func() error { return fn(r.tr) })
	r.mark(markIter)
	return err
}

func split(tr *tracer, c *mpi.Comm, color, key, it int) (*mpi.Comm, error) {
	var out *mpi.Comm
	err := tr.do("mpi.split", it, func() error {
		var err error
		out, err = c.Split(color, key)
		return err
	})
	return out, err
}

// memberPlacement returns the core of each member of c.
func memberPlacement(c *mpi.Comm) []int {
	world := c.World().Placement()
	out := make([]int, c.Size())
	for i := range out {
		out[i] = world[c.WorldRank(i)]
	}
	return out
}

// reorderStep is lines 3-11 of the paper's Fig. 1 on comm: monitor one
// phase, gather, map, broadcast k and split. The untraced run calls the
// library's entry points; the traced run makes the same public calls one
// by one (as reorder.Reorder does) so each layer gets its own span, and
// must end with the same k and, on the exact engine, the same clocks.
// rowCheck, when set, checks each rank's own monitored row before the
// gather, which needs the session MonitorAndReorder keeps to itself.
func (r *rankRun) reorderStep(env *monitoring.Env, c *mpi.Comm, phase func(*mpi.Comm) error,
	rowCheck func(c *mpi.Comm, row sparsemat.Row)) (*mpi.Comm, []int, error) {
	b, tr := r.b, r.tr
	if !b.traced && rowCheck == nil {
		return reorder.MonitorAndReorder(env, c, phase, reorder.WithFixedMappingTime(mappingCharge))
	}
	var s *monitoring.Session
	if err := tr.do("monitoring.start", -1, func() (err error) { s, err = env.Start(c); return }); err != nil {
		return nil, nil, err
	}
	if err := phase(c); err != nil {
		return nil, nil, err
	}
	if err := tr.do("monitoring.suspend", -1, s.Suspend); err != nil {
		return nil, nil, err
	}
	if rowCheck != nil {
		row, err := s.SparseData(monitoring.AllComm)
		if err != nil {
			return nil, nil, err
		}
		rowCheck(c, row)
	}
	var opt *mpi.Comm
	var k []int
	var err error
	if b.traced {
		opt, k, err = r.composedReorder(s, c)
	} else {
		opt, k, err = reorder.Reorder(s, reorder.NewOptions(reorder.WithFixedMappingTime(mappingCharge)))
	}
	if err != nil {
		return nil, nil, err
	}
	return opt, k, tr.do("monitoring.free", -1, s.Free)
}

// composedReorder is reorder.Reorder spelled out in its public calls.
func (r *rankRun) composedReorder(s *monitoring.Session, c *mpi.Comm) (*mpi.Comm, []int, error) {
	b, tr := r.b, r.tr
	var sm *sparsemat.Matrix
	if err := tr.do("monitoring.gather", -1, func() (err error) {
		sm, err = s.RootgatherSparse(0, monitoring.AllComm)
		return
	}); err != nil {
		return nil, nil, err
	}
	k := make([]int, c.Size())
	if c.Rank() == 0 {
		topo := c.World().Machine().Topo
		place := memberPlacement(c)
		if err := tr.do("treematch.map", -1, func() (err error) {
			k, err = reorder.ComputeMapping(sm, topo, place)
			return
		}); err != nil {
			return nil, nil, err
		}
		c.Proc().Compute(mappingCharge)
		before, after, err := placementCosts(sm, topo, place, k)
		if err != nil {
			return nil, nil, err
		}
		b.mu.Lock()
		b.gathers++
		b.gatherWire += sm.WireBytes()
		b.gatherNNZ += sm.NNZ()
		b.costBefore += before
		b.costAfter += after
		b.mu.Unlock()
	}
	mon := c.Proc().Monitor()
	mon.Suppress()
	defer mon.Unsuppress()
	buf := mpi.EncodeInts(k)
	if err := tr.do("mpi.bcast", -1, func() error { return c.Bcast(buf, 0) }); err != nil {
		return nil, nil, err
	}
	k = mpi.DecodeInts(buf)
	opt, err := split(tr, c, 0, k[c.Rank()], -1)
	return opt, k, err
}

// placementCosts is treematch.Cost of the gathered matrix before and after
// the permutation k: role j runs on place[j] before and, after, on the
// core of the old rank r with k[r] = j.
func placementCosts(sm *sparsemat.Matrix, topo *topology.Topology, place, k []int) (before, after float64, err error) {
	m, err := treematch.FromView(sm)
	if err != nil {
		return 0, 0, err
	}
	moved := make([]int, len(place))
	for r, j := range k {
		moved[j] = place[r]
	}
	return treematch.Cost(m, place, topo), treematch.Cost(m, moved, topo), nil
}

// redistribute moves each role's seeded state block to its new owner and
// checks what arrived. Marks on both sides time it across the world.
func (r *rankRun) redistribute(c *mpi.Comm, k []int) error {
	b := r.b
	r.mark(markStep)
	b.ck.checkPermutation(k, c.Size(), c.Rank())
	block := make([]byte, stateBytes)
	fillBlock(block, b.seed, c.Rank())
	var got []byte
	if err := r.tr.do("mpi.redistribute", -1, func() (err error) {
		got, err = reorder.Redistribute(c, k, block)
		return
	}); err != nil {
		return err
	}
	b.ck.checkRedistributed(got, stateBytes, b.seed, k, c.Rank())
	r.mark(markRedistribute)
	return nil
}

// clock is the timed rank's virtual clock (zero on the other ranks, which
// record no virtual-time marks).
func (r *rankRun) clock(c *mpi.Comm) time.Duration {
	if !r.timed {
		return 0
	}
	return c.Proc().Clock()
}

// finish stores the timed rank's k and the virtual split of a reordered
// run: iterations before, the reorder step, and iterations after.
func (r *rankRun) finish(k []int, start, preEnd, reorderStart, reorderEnd, end time.Duration) {
	if !r.timed {
		return
	}
	b := r.b
	b.mu.Lock()
	b.k = append([]int(nil), k...)
	b.virtPre += preEnd - start
	b.virtReorder += reorderEnd - reorderStart
	b.virtPost += end - reorderEnd
	b.mu.Unlock()
}

// paperLoop: plIters iterations, MonitorAndReorder over one more,
// Redistribute, then plIters iterations on the reordered communicator.
// An iteration is a 64 KiB/rank AllgatherN inside each 24-rank group and
// an 8 KiB int64 Allreduce over the world whose result is checked.
func paperLoop(b *batch, c *mpi.Comm) error {
	r := b.rank(c)
	env, err := monitoring.Init(c.Proc())
	if err != nil {
		return err
	}
	defer env.Finalize()
	send := reducePayload(b.seed, c.Proc().Rank(), plReduceElems)
	recv := make([]byte, len(send))
	step := func(cc, g *mpi.Comm, it int) error {
		return r.iter(it, func(tr *tracer) error {
			if err := tr.do("mpi.allgather", it, func() error { return g.AllgatherN(plGatherBytes) }); err != nil {
				return err
			}
			if err := tr.do("mpi.allreduce", it, func() error {
				return cc.Allreduce(send, recv, mpi.Int64, mpi.OpSum)
			}); err != nil {
				return err
			}
			b.ck.checkAllreduce(recv, b.want, c.Proc().Rank(), it)
			return nil
		})
	}
	g, err := split(r.tr, c, c.Rank()/plGroup, c.Rank(), -1)
	if err != nil {
		return err
	}
	r.mark(markStep)
	v0 := r.clock(c)
	for it := 0; it < plIters; it++ {
		if err := step(c, g, it); err != nil {
			return err
		}
	}
	v1 := r.clock(c)
	var v2 time.Duration
	opt, k, err := r.reorderStep(env, c, func(cc *mpi.Comm) error {
		err := step(cc, g, plIters)
		v2 = r.clock(c)
		return err
	}, nil)
	if err != nil {
		return err
	}
	if err := r.redistribute(c, k); err != nil {
		return err
	}
	g2, err := split(r.tr, opt, opt.Rank()/plGroup, opt.Rank(), -1)
	if err != nil {
		return err
	}
	r.mark(markStep)
	v3 := r.clock(c)
	for it := plIters + 1; it <= 2*plIters; it++ {
		if err := step(opt, g2, it); err != nil {
			return err
		}
	}
	r.finish(k, v0, v1, v2, v3, r.clock(c))
	return nil
}

// gridNeighbours lists the up-to-4 neighbours of rank me on a gx-wide grid.
func gridNeighbours(me, gx int) []int {
	x, y := me%gx, me/gx
	var nbs []int
	if x > 0 {
		nbs = append(nbs, me-1)
	}
	if x < gx-1 {
		nbs = append(nbs, me+1)
	}
	if y > 0 {
		nbs = append(nbs, me-gx)
	}
	if y < gx-1 {
		nbs = append(nbs, me+gx)
	}
	return nbs
}

// haloStep sends one size-only message to each grid neighbour and drains
// as many arrivals from any source. The tag alternates with the step's
// parity, so a rank cannot take a neighbour's next-step message for this
// step's: neighbours stay within one step of each other, as the data
// dependencies of a real halo exchange keep them.
func haloStep(c *mpi.Comm, tr *tracer, it int) error {
	nbs := gridNeighbours(c.Rank(), stGrid)
	tag := stHaloTag + it%2
	for _, nb := range nbs {
		if err := tr.do("mpi.send", it, func() error { return c.SendN(nb, tag, stMsgBytes) }); err != nil {
			return err
		}
	}
	for range nbs {
		if err := tr.do("mpi.recv", it, func() error {
			_, err := c.Recv(mpi.AnySource, tag, nil)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// haloRowCheck checks one rank's monitored row after exactly one halo
// step: one message of stMsgBytes to each grid neighbour and nothing else.
func (b *batch) haloRowCheck(c *mpi.Comm, row sparsemat.Row) {
	nbs := gridNeighbours(c.Rank(), stGrid)
	ok := len(row.Dst) == len(nbs)
	for i := 0; ok && i < len(row.Dst); i++ {
		ok = row.Cnt[i] == 1 && row.Byt[i] == stMsgBytes && containsInt(nbs, int(row.Dst[i]))
	}
	b.rowNNZ.Add(int64(len(row.Dst)))
	b.ck.check(ok, "rank %d: monitored row %v is not one halo step to %v", c.Rank(), row.Dst, nbs)
}

func containsInt(v []int, x int) bool {
	for _, y := range v {
		if y == x {
			return true
		}
	}
	return false
}

// stencilNNZ is the analytic nonzero count of one halo step's matrix: two
// directed entries per grid edge.
const stencilNNZ = 2 * 2 * stGrid * (stGrid - 1)

// stencil4k: stIters halo steps, the reorder loop over one more at order
// 4096 (its monitored rows checked against the analytic matrix),
// Redistribute, then stIters steps on the reordered communicator.
func stencil4k(b *batch, c *mpi.Comm) error {
	r := b.rank(c)
	env, err := monitoring.Init(c.Proc())
	if err != nil {
		return err
	}
	defer env.Finalize()
	step := func(cc *mpi.Comm, it int) error {
		return r.iter(it, func(tr *tracer) error { return haloStep(cc, tr, it) })
	}
	r.mark(markStep)
	v0 := r.clock(c)
	for it := 0; it < stIters; it++ {
		if err := step(c, it); err != nil {
			return err
		}
	}
	v1 := r.clock(c)
	var v2 time.Duration
	opt, k, err := r.reorderStep(env, c, func(cc *mpi.Comm) error {
		err := step(cc, stIters)
		v2 = r.clock(c)
		return err
	}, b.haloRowCheck)
	if err != nil {
		return err
	}
	if err := r.redistribute(c, k); err != nil {
		return err
	}
	v3 := r.clock(c)
	for it := stIters + 1; it <= 2*stIters; it++ {
		if err := step(opt, it); err != nil {
			return err
		}
	}
	r.finish(k, v0, v1, v2, v3, r.clock(c))
	return nil
}

// onlineWindow is one window of online-phases: split the communicator in
// hand into onGroups groups (consecutive or strided ranks) and allgather
// onChunk bytes per rank inside each.
func onlineWindow(c *mpi.Comm, tr *tracer, strided bool, it int) error {
	color := c.Rank() / (c.Size() / onGroups)
	if strided {
		color = c.Rank() % onGroups
	}
	sub, err := split(tr, c, color, c.Rank(), it)
	if err != nil {
		return err
	}
	return tr.do("mpi.allgather", it, func() error { return sub.AllgatherN(onChunk) })
}

// onlinePhases runs onWindows windows under online.Controller.Step; the
// pattern flips every onPerPhase windows, and every phase must end in
// exactly one remap (the first one being the initial placement's).
func onlinePhases(b *batch, c *mpi.Comm) error {
	r := b.rank(c)
	env, err := monitoring.Init(c.Proc())
	if err != nil {
		return err
	}
	defer env.Finalize()
	ctl, err := online.New(env, c, online.WithWindow(1), online.WithFlags(monitoring.AllComm),
		online.WithFixedMappingTime(mappingCharge))
	if err != nil {
		return err
	}
	defer ctl.Close()
	r.mark(markStep)
	remaps := make([]int, onPhases)
	for w := 0; w < onWindows; w++ {
		strided := (w/onPerPhase)%2 == 1
		deciding := ctl.Comm().Rank() == 0
		var phaseHost, phaseEnd time.Duration
		var dec online.Decision
		t0 := time.Now()
		err := r.tr.do("online.step", w, func() (err error) {
			_, dec, err = ctl.Step(func(cc *mpi.Comm) error {
				p0 := time.Now()
				err := r.iter(w, func(tr *tracer) error { return onlineWindow(cc, tr, strided, w) })
				phaseHost = time.Since(p0)
				phaseEnd = r.clock(c)
				return err
			})
			return
		})
		if err != nil {
			return err
		}
		r.mark(markStep)
		if dec.Remapped {
			remaps[w/onPerPhase]++
		}
		if deciding && dec.Remapped {
			b.mu.Lock()
			b.costBefore += dec.CostBefore
			b.costAfter += dec.CostAfter
			b.mu.Unlock()
		}
		if r.timed {
			b.mu.Lock()
			b.stepSelf += time.Since(t0) - phaseHost
			b.virtReorder += r.clock(c) - phaseEnd
			b.mu.Unlock()
		}
	}
	if r.timed {
		for p, n := range remaps {
			b.ck.check(n == 1, "online-phases: phase %d made %d remaps, want 1", p, n)
		}
		b.mu.Lock()
		b.remaps = ctl.Remaps()
		b.gathers = ctl.Windows()
		b.mu.Unlock()
	}
	return nil
}

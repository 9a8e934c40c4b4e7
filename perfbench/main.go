// Command perfbench is the repository's benchmark: it runs the paper's
// Fig. 1 loop (monitor an iteration, gather the matrix, TreeMatch, Split,
// redistribute, continue) as an application calls it, on one of three
// workloads, and prints end-to-end metrics, or per-layer metrics with
// --trace 1. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.py, which builds it inside the checkout:
//
//	python3 perfbench/run.py --workload paper-loop --seed 1 --seconds 35 --trace 0
//
// See README.md for the metrics, their units and what each layer metric
// is expected to move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// extraSetups are worlds built and dropped before the first batch, so the
// set-up median has several samples even when only two batches fit. The
// first is not timed: a process's first world lands on memory fresh from
// the OS, which needs no zeroing until its pages are touched, while every
// later world reuses freed heap that the allocator must clear, so only
// worlds after the first time the same work.
const extraSetups = 3

// outDir, relative to the checkout root, receives the CPU profile and the
// span trace of a traced run.
const outDir = ".bench_build/perfbench"

// minBatches: two batches let the run compare exact figures between two
// worlds built from the same seed (and, traced, pair an untraced batch
// with a traced one).
const minBatches = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-loop, stencil-4k or online-phases")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measure for at least this many seconds (and at least two batches)")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of paper-loop, stencil-4k, online-phases), --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r, err := measure(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", wl.name, *seed, err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.Correct {
		return 1
	}
	return 0
}

// measure runs batches of the workload until the time is up and reduces
// them to the run's metrics.
func measure(wl *workload, seed int64, d time.Duration, traced bool, log io.Writer) (*result, error) {
	var want []byte
	if wl.name == "paper-loop" {
		want = reduceExpected(seed, wl.np, plReduceElems)
	}
	ck := &checks{}
	var setups []float64
	for i := 0; i < extraSetups; i++ {
		_, s, err := timeSetup(wl, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i > 0 {
			setups = append(setups, s.Seconds())
		}
	}
	// A traced run measures untraced batches first (the end-to-end
	// figures and the base of the tracing overhead), then traced batches
	// under one CPU profile: once the profiler has run, it slows every
	// later batch of the process, traced or not.
	var bs, plain, tr []*batchResult
	deadline := time.Now().Add(d)
	switchAt := deadline
	if traced {
		switchAt = time.Now().Add(d / 2)
	}
	prof := filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d.pprof", wl.name, seed))
	stopProfile := func() {}
	for len(bs) < minBatches || time.Now().Before(deadline) || (traced && len(tr) == 0) {
		tb := traced && len(plain) > 0 && (len(tr) > 0 || !time.Now().Before(switchAt))
		if tb && len(tr) == 0 {
			var err error
			if stopProfile, err = startProfile(prof); err != nil {
				return nil, err
			}
			defer func() { stopProfile() }()
		}
		br, err := runBatch(wl, seed, want, ck, tb, len(bs))
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", len(bs), err)
		}
		bs = append(bs, br)
		if tb {
			tr = append(tr, br)
		} else {
			plain = append(plain, br)
			setups = append(setups, br.setup.Seconds())
		}
	}
	stopProfile()
	freeHeap()
	checkBatches(wl, ck, bs)

	e2e := endToEnd(plain, setups)
	printSummary(log, wl, seed, plain, e2e, ck)
	res := &result{Correct: ck.failed.Load() == 0, Attempted: ck.attempted.Load(), Failed: ck.failed.Load()}
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	layers, err := perLayer(plain, tr, prof)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", wl.name, seed)), tr); err != nil {
		return nil, err
	}
	printLayers(log, tr, layers)
	return res, nil
}

// checkBatches counts the checks that compare batches. Every batch of a
// run has the same inputs, so k must repeat; on the exact engine so must
// the virtual time and the counts, traced or not.
func checkBatches(wl *workload, ck *checks, bs []*batchResult) {
	ref := bs[0]
	for i, b := range bs {
		if wl.rowNNZ > 0 {
			ck.check(b.nnz == int64(wl.rowNNZ), "batch %d: monitored rows hold %d entries, want %d", i, b.nnz, wl.rowNNZ)
			if b.traced {
				ck.check(b.b.gatherNNZ == wl.rowNNZ, "batch %d: gathered matrix holds %d entries, want %d", i, b.b.gatherNNZ, wl.rowNNZ)
			}
		}
		if i == 0 {
			continue
		}
		if ref.k != nil {
			ck.check(equalInts(b.k, ref.k), "batch %d: k differs from batch 0's", i)
		}
		if wl.event {
			ck.check(b.virt == ref.virt, "batch %d: virtual time %d ns, batch 0 had %d ns", i, b.virt, ref.virt)
			ck.check(b.msgs == ref.msgs, "batch %d: %d messages, batch 0 had %d", i, b.msgs, ref.msgs)
			ck.check(b.events == ref.events, "batch %d: %d engine events, batch 0 had %d", i, b.events, ref.events)
			ck.check(b.nnz == ref.nnz, "batch %d: %d matrix entries, batch 0 had %d", i, b.nnz, ref.nnz)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// iterMs pools the timed iterations of the batches, in ms.
func iterMs(bs []*batchResult) []float64 {
	var v []float64
	for _, b := range bs {
		for _, d := range b.iters {
			v = append(v, ms(d))
		}
	}
	return v
}

// blockIters is the size of the blocks iteration percentiles are taken
// over: p95 of 200 samples has ten beyond it.
const blockIters = 200

// iterBlocks groups whole consecutive batches into blocks of at least
// blockIters iterations (a short tail joins the last block) and returns
// each block's p50 and p95.
func iterBlocks(bs []*batchResult) (p50s, p95s []float64) {
	var groups [][]*batchResult
	start, n := 0, 0
	for i, b := range bs {
		n += len(b.iters)
		if n >= blockIters {
			groups = append(groups, bs[start:i+1])
			start, n = i+1, 0
		}
	}
	switch {
	case start == len(bs):
	case len(groups) == 0:
		groups = append(groups, bs)
	default:
		last := len(groups) - 1
		groups[last] = bs[start-len(groups[last]):]
	}
	for _, g := range groups {
		s := sortedCopy(iterMs(g))
		p50, _ := quantile(s, 0.50)
		p95, _ := quantile(s, 0.95)
		p50s, p95s = append(p50s, p50), append(p95s, p95)
	}
	return p50s, p95s
}

// endToEnd reduces the untraced batches to the end-to-end metrics: each
// is the mean over batches (iteration percentiles: over blocks of
// batches), except set-up, the median over set-ups. A stencil-4k batch's
// speed moves by up to 2x from one batch to the next, and a run holds
// only four; over ten runs their mean spread less than their median, best
// or worst batch (README.md).
func endToEnd(bs []*batchResult, setups []float64) map[string]metric {
	var reorderS, virt, rate []float64
	var msgs, alloc uint64
	for _, b := range bs {
		var in time.Duration
		for _, d := range b.iters {
			in += d
		}
		reorderS = append(reorderS, (b.run - in).Seconds())
		virt = append(virt, ms(b.virt))
		rate = append(rate, float64(b.msgs)/b.run.Seconds())
		msgs += b.msgs
		alloc += b.alloc
	}
	p50s, p95s := iterBlocks(bs)
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"msgs_per_s":      {mean(rate), "msg/s"},
		"iter_ms_p50":     {mean(p50s), "ms"},
		"iter_ms_p95":     {mean(p95s), "ms"},
		"reorder_s":       {mean(reorderS), "s"},
		"virt_ms":         {mean(virt), "ms"},
		"peak_rss_mb":     {peakRSSMiB(), "MiB"},
		"alloc_b_per_msg": {float64(alloc) / float64(msgs), "B/msg"},
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// perLayer reduces the traced batches to the per-layer metrics, averaged
// per batch; ratios divide totals.
func perLayer(plain, tr []*batchResult, prof string) (map[string]metric, error) {
	n := float64(len(tr))
	var spans []span
	var msgs, bytes, folds, events, mallocs uint64
	var xmit, wait, worldB int64
	var gcCycles uint32
	var gcPause, run, redist, stepSelf, virtPre, virtRe, virtPost time.Duration
	var costB, costA float64
	var gathers, wire, nnz, remaps int
	for _, b := range tr {
		spans = append(spans, b.spans...)
		msgs += b.msgs
		bytes += b.bytes
		folds += b.folds
		events += b.events
		mallocs += b.mallocs
		xmit += b.xmitBytes
		wait += b.nicWait
		worldB += b.worldBytes
		gcCycles += b.gcCycles
		gcPause += b.gcPause
		run += b.run
		redist += b.redistribute
		bb := b.b
		stepSelf += bb.stepSelf
		virtPre += bb.virtPre
		virtRe += bb.virtReorder
		virtPost += bb.virtPost
		costB += bb.costBefore
		costA += bb.costAfter
		gathers += bb.gathers
		wire += bb.gatherWire
		nnz += bb.gatherNNZ
		remaps += bb.remaps
	}
	named := byName(spans)
	sum := func(names ...string) float64 {
		var t time.Duration
		for _, nm := range names {
			t += named[nm].Total
		}
		return ms(t) / n
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var plainMsgs uint64
	var plainRun time.Duration
	for _, b := range plain {
		plainMsgs += b.msgs
		plainRun += b.run
	}
	untracedRate := div(float64(plainMsgs), plainRun.Seconds())
	tracedRate := div(float64(msgs), run.Seconds())
	m := map[string]metric{
		"mpi.msgs":                  {float64(msgs) / n, "count"},
		"mpi.bytes":                 {float64(bytes) / n, "B"},
		"mpi.coll_ms":               {sum("mpi.allgather", "mpi.allreduce"), "ms"},
		"mpi.p2p_ms":                {sum("mpi.send", "mpi.recv"), "ms"},
		"mpi.split_ms":              {sum("mpi.split"), "ms"},
		"mpi.split_calls":           {float64(named["mpi.split"].Calls) / n, "count"},
		"mpi.redistribute_ms":       {ms(redist) / n, "ms"},
		"mpi.world_mb":              {float64(worldB) / n / (1 << 20), "MiB"},
		"engine.events":             {float64(events) / n, "count"},
		"engine.ns_per_event":       {div(float64(run), float64(events)), "ns"},
		"engine.events_per_msg":     {div(float64(events), float64(msgs)), "ratio"},
		"netsim.xmit_mb":            {float64(xmit) / n / (1 << 20), "MiB"},
		"netsim.nic_wait_ms":        {float64(wait) / n / 1e6, "ms"},
		"pml.folds":                 {float64(folds) / n, "count"},
		"pml.updates_per_fold":      {div(float64(msgs), float64(folds)), "ratio"},
		"monitoring.suspend_ms":     {sum("monitoring.suspend"), "ms"},
		"monitoring.gather_ms":      {sum("monitoring.gather"), "ms"},
		"monitoring.reads":          {float64(gathers) / n, "count"},
		"monitoring.gather_wire_kb": {float64(wire) / n / 1024, "KiB"},
		"monitoring.gather_nnz":     {float64(nnz) / n, "count"},
		"treematch.map_ms":          {sum("treematch.map"), "ms"},
		"treematch.cost_ratio":      {div(costA, costB), "ratio"},
		"reorder.virt_ms":           {ms(virtRe) / n, "ms"},
		"reorder.virt_speedup":      {div(float64(virtPre), float64(virtRe+virtPost)), "ratio"},
		"online.step_self_ms":       {ms(stepSelf) / n, "ms"},
		"online.remaps":             {float64(remaps) / n, "count"},
		"runtime.gc_cycles":         {float64(gcCycles) / n, "count"},
		"runtime.gc_pause_ms":       {ms(gcPause) / n, "ms"},
		"runtime.mallocs":           {float64(mallocs) / n, "count"},
		"trace.overhead_pct":        {100 * (1 - div(tracedRate, untracedRate)), "%"},
	}
	cpu, err := cpuProfile(prof)
	if err != nil {
		return nil, err
	}
	for _, bk := range cpuBuckets {
		if bk != "other" {
			m["cpu."+bk+"_pct"] = metric{cpu[bk], "%"}
		}
	}
	return m, nil
}

// startProfile starts the CPU profile of the traced batches. The returned
// function stops it and closes the file; calling it again does nothing.
func startProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}, nil
}

// cpuProfile folds the traced batches' CPU profile by layer with
// `go tool pprof -top -nodecount=0`.
func cpuProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return foldPprofTop(&out)
}

func writeSpans(path string, tr []*batchResult) error {
	var spans []span
	for _, b := range tr {
		spans = append(spans, b.spans...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary writes the human-readable lines before the JSON result:
// the error rate, the iteration tail by the highest-percentile rule, and
// the batch-to-batch spread of the virtual time.
func printSummary(w io.Writer, wl *workload, seed int64, bs []*batchResult, e2e map[string]metric, ck *checks) {
	fmt.Fprintf(w, "workload %s seed %d np %d batches %d GOMAXPROCS %d\n", wl.name, seed, wl.np, len(bs), runtime.GOMAXPROCS(0))
	names := make([]string, 0, len(e2e))
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-16s %14.6g %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	p50s, _ := iterBlocks(bs)
	all := iterMs(bs)
	fmt.Fprintf(w, "  iter_ms p50/p95: means over %d blocks of >= %d iterations, %d iterations in all\n", len(p50s), blockIters, len(all))
	if t, ok := highestTail(all); ok {
		fmt.Fprintf(w, "  iter_ms tail: p%.2f = %.4g ms over %d iterations\n", t.Pct, t.Value, t.N)
	}
	var virt []float64
	for _, b := range bs {
		virt = append(virt, ms(b.virt))
	}
	pin := "spread"
	if wl.event {
		pin = "pinned, spread"
	}
	fmt.Fprintf(w, "  virt_ms %s across batches: %.3g%%\n", pin, 100*relSpread(virt))
	fmt.Fprintf(w, "  error_rate %.6g (%d failed of %d checked)\n", ck.errorRate(), ck.failed.Load(), ck.attempted.Load())
	for _, f := range ck.failures() {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printLayers writes the per-layer metrics and each layer's self time.
func printLayers(w io.Writer, tr []*batchResult, layers map[string]metric) {
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "per-layer (traced batches: %d)\n", len(tr))
	for _, k := range names {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", k, layers[k].Value, layers[k].Unit)
	}
	self := map[string]time.Duration{}
	for _, b := range tr {
		for l, d := range selfTimes(b.spans) {
			self[l] += d
		}
	}
	ls := make([]string, 0, len(self))
	for l := range self {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	for _, l := range ls {
		fmt.Fprintf(w, "  self %-12s %10.3f ms/batch\n", l, ms(self[l])/float64(len(tr)))
	}
}

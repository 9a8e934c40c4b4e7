package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// cpuBuckets are the busy-time buckets of the traced run's CPU profile, in
// reporting order. Flat (self) samples of each function land in exactly
// one bucket; "other" takes what no layer claims.
var cpuBuckets = []string{"engine", "mpi", "netsim", "pml", "monitoring", "treematch", "online", "gc", "sched", "other"}

// pkgBucket maps the repo's packages onto the layers they belong to.
var pkgBucket = map[string]string{
	"mpimon/internal/netsim/event": "engine",
	"mpimon/internal/mpi":          "mpi",
	"mpimon/internal/netsim":       "netsim",
	"mpimon/internal/faults":       "netsim",
	"mpimon/internal/pml":          "pml",
	"mpimon/internal/commitagg":    "pml",
	"mpimon/internal/monitoring":   "monitoring",
	"mpimon/internal/mpit":         "monitoring",
	"mpimon/internal/sparsemat":    "monitoring",
	"mpimon/internal/treematch":    "treematch",
	"mpimon/internal/topology":     "treematch",
	"mpimon/internal/reorder":      "treematch",
	"mpimon/internal/online":       "online",
	"mpimon/internal/predict":      "online",
}

// funcPackage returns the import path of a symbol as pprof prints it, e.g.
// "mpimon/internal/netsim/event.(*Heap).Push" -> "mpimon/internal/netsim/event".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// runtimeBucket sorts a runtime symbol into gc (collector and allocator),
// sched (scheduler, parking, futexes, channel handoff) or other.
func runtimeBucket(sym string) string {
	name := strings.TrimPrefix(sym, "runtime.")
	for _, p := range []string{"gc", "(*gc", "scanobject", "greyobject", "markBits", "heapBits", "findObject",
		"mallocgc", "(*mheap)", "(*mcentral)", "(*mcache)", "(*mspan)", "(*gcWork)", "(*gcBits)",
		"sweep", "bgsweep", "bgscavenge", "(*pageAlloc)", "(*scavenger", "memclrNoHeapPointers",
		"wbBuf", "bulkBarrier", "typePointers", "nextFreeFast", "spanOf", "markroot", "scanstack",
		"scanblock", "madvise", "sysUnused", "sysUsed", "newobject", "makeslice", "growslice", "(*sweepLocked)"} {
		if strings.HasPrefix(name, p) {
			return "gc"
		}
	}
	for _, p := range []string{"schedule", "findRunnable", "park_m", "gopark", "goready", "ready", "futex",
		"lock", "unlock", "lock2", "unlock2", "notesleep", "notewakeup", "mcall", "gogo", "goexit",
		"chansend", "chanrecv", "selectgo", "semacquire", "semrelease", "runqget", "runqput", "runqgrab",
		"runqsteal", "stealWork", "wakep", "startm", "stopm", "handoffp", "execute", "checkTimers",
		"netpoll", "usleep", "osyield", "procyield", "nanotime", "mPark", "resetspinning", "casgstatus",
		"newproc", "goschedImpl", "gosched_m", "acquirep", "releasep", "systemstack", "epollwait",
		"(*waitq)", "send", "recv", "closechan", "(*semaRoot)", "sellock", "selunlock", "block"} {
		if name == p || strings.HasPrefix(name, p) {
			return "sched"
		}
	}
	return "other"
}

// bucketOf returns the cpu bucket of one symbol.
func bucketOf(sym string) string {
	pkg := funcPackage(sym)
	if b, ok := pkgBucket[pkg]; ok {
		return b
	}
	switch pkg {
	case "runtime":
		return runtimeBucket(sym)
	case "sync", "sync/atomic", "internal/sync":
		return "sched"
	}
	return "other"
}

// foldPprofTop folds the output of `go tool pprof -top -nodecount=0` into
// the cpu buckets, as percentages of all sampled time. It reads the flat%
// column of each node row and skips the header and summary lines.
func foldPprofTop(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	rows := 0
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil || !strings.HasSuffix(f[1], "%") {
			return nil, fmt.Errorf("pprof top: bad flat%% %q in %q", f[1], sc.Text())
		}
		out[bucketOf(f[5])] += pct
		rows++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("pprof top: no table header")
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof top: no samples")
	}
	return out, nil
}

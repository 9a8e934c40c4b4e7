// Command exp-collopt regenerates the paper's Fig. 5: the walltime of
// tree-based collectives (reduce, binary tree; bcast, binomial tree) with
// the default round-robin mapping versus monitoring-driven rank
// reordering, across buffer sizes and world sizes. Every point runs on the
// event engine, so the printed medians are exact and repeatable.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpimon/internal/exp"
)

func main() {
	op := flag.String("op", "reduce", "collective: reduce or bcast")
	nps := flag.String("np", "48,96,192", "world sizes")
	sizes := flag.String("sizes", "1000,2000,5000,10000,20000,50000,100000,200000", "buffer sizes in 1000-int units")
	reps := flag.Int("reps", 3, "repetitions (median reported)")
	telem := flag.String("telemetry", "", "write a Chrome trace-event file of the run's telemetry spans")
	cpuprof := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprof := flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	flag.Parse()
	flush := exp.TelemetrySetup(*telem)
	stopProf, err := exp.ProfileSetup(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exp-collopt:", err)
		os.Exit(1)
	}

	cfg := exp.DefaultCollOpt
	cfg.Op = *op
	cfg.Reps = *reps
	if cfg.NPs, err = exp.ParseInts(*nps); err == nil {
		cfg.BufSizes, err = exp.ParseInts(*sizes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "exp-collopt:", err)
		os.Exit(1)
	}
	rows, err := exp.CollectiveOpt(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exp-collopt:", err)
		os.Exit(1)
	}
	exp.PrintCollOpt(os.Stdout, rows)
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "exp-collopt:", err)
		os.Exit(1)
	}
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "exp-collopt:", err)
		os.Exit(1)
	}
}

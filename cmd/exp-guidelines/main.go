// Command exp-guidelines verifies Hunold-style performance guidelines
// (a collective must not be slower than its mock-up composition) exactly
// on the deterministic netsim clock of the event engine, and sweeps the
// collective-algorithm autotuner over the acceptance grid, asserting the
// tuned pick is never slower than the fixed default. Any guideline
// violation exits 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpimon/internal/coll"
	"mpimon/internal/exp"
)

func main() {
	topo := flag.String("topo", "plafrim", "machine model: plafrim or fatnode")
	nps := flag.String("np", "24,48", "world sizes for the guideline checks")
	blocks := flag.String("blocks", "64,1024,16384", "per-rank block sizes in bytes for the guideline checks")
	reps := flag.Int("reps", 3, "repetitions (median reported)")
	sweep := flag.Bool("sweep", true, "also run the autotuner sweep")
	sweepNPs := flag.String("sweep-np", "48,96,192", "world sizes for the autotuner sweep")
	sweepSizes := flag.String("sweep-sizes", "4096,8192,16384,32768,65536,131072,262144,524288", "total payload bytes for the autotuner sweep")
	sweepOps := flag.String("sweep-ops", "allreduce", "operations to sweep")
	telem := flag.String("telemetry", "", "write a Chrome trace-event file of the run's telemetry spans")
	flag.Parse()
	flush := exp.TelemetrySetup(*telem)

	cfg := exp.DefaultGuidelines
	cfg.Topo = *topo
	cfg.Reps = *reps
	var err error
	if cfg.NPs, err = exp.ParseInts(*nps); err == nil {
		cfg.Blocks, err = exp.ParseInts(*blocks)
	}
	if err != nil {
		fail(err)
	}
	rows, err := exp.Guidelines(cfg)
	if err != nil {
		fail(err)
	}
	exp.PrintGuidelines(os.Stdout, rows)

	if *sweep {
		acfg := exp.DefaultAutotune
		acfg.Topo = *topo
		acfg.Reps = *reps
		if acfg.NPs, err = exp.ParseInts(*sweepNPs); err == nil {
			acfg.Sizes, err = exp.ParseInts(*sweepSizes)
		}
		if err != nil {
			fail(err)
		}
		acfg.Ops = nil
		for _, o := range exp.ParseStrings(*sweepOps) {
			acfg.Ops = append(acfg.Ops, coll.Op(o))
		}
		arows, _, err := exp.AutotuneSweep(acfg)
		if err != nil {
			fail(err)
		}
		fmt.Println()
		exp.PrintAutotune(os.Stdout, arows)
	}

	if err := flush(); err != nil {
		fail(err)
	}
	if bad := exp.Violations(rows); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "exp-guidelines: %d guideline violation(s):\n", len(bad))
		for _, r := range bad {
			fmt.Fprintf(os.Stderr, "  %s np=%d block=%d: tuned %v > mockup %v\n",
				r.Guideline, r.NP, r.Block, r.LHS, r.RHS)
		}
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "exp-guidelines:", err)
	os.Exit(1)
}

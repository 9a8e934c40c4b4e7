package exp

import (
	"bytes"
	"strings"
	"testing"

	"mpimon/internal/coll"
)

// Tier-1 smoke of the guideline verification: every invariant must hold
// exactly on a reduced grid, on the cluster model and on the fat-node
// (GPU-style) fabric.
func TestGuidelinesHoldSmall(t *testing.T) {
	for _, topo := range []string{"plafrim", "fatnode"} {
		cfg := GuidelinesConfig{Topo: topo, NPs: []int{8, 12}, Blocks: []int{64, 4096}, Reps: 2}
		rows, err := Guidelines(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// 5 guidelines × 2 np × 2 blocks.
		if len(rows) != 20 {
			t.Fatalf("%s: got %d rows, want 20", topo, len(rows))
		}
		for _, r := range Violations(rows) {
			t.Errorf("%s: %s np=%d block=%d violated: tuned %v > mockup %v (alg %s)",
				topo, r.Guideline, r.NP, r.Block, r.LHS, r.RHS, r.Alg)
		}
		var buf bytes.Buffer
		PrintGuidelines(&buf, rows)
		if !strings.Contains(buf.String(), "bcast<=scatter+allgather") {
			t.Fatal("printer lost the guideline names")
		}
	}
}

// The autotuner sweep invariant on a reduced grid: the pick is never
// slower than the default (AutotuneSweep errors otherwise), and the
// large-message points actually exercise a non-default algorithm.
func TestAutotuneSweepSmall(t *testing.T) {
	cfg := AutotuneConfig{
		Topo:  "plafrim",
		Ops:   []coll.Op{coll.OpAllreduce},
		NPs:   []int{24},
		Sizes: []int{4096, 262144},
		Reps:  2,
	}
	rows, table, err := AutotuneSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	nonDefault := false
	for _, r := range rows {
		if r.Picked > r.Default {
			t.Errorf("%s np=%d size=%d: pick %s slower than default", r.Op, r.NP, r.Size, r.Alg)
		}
		if r.Alg != coll.Default {
			nonDefault = true
		}
	}
	if !nonDefault {
		t.Error("sweep never picked a non-default algorithm; grid too narrow to exercise the tuner")
	}
	if got := table.Pick(coll.OpAllreduce, 24, 262144); got == coll.Default {
		t.Errorf("table pick at the large point is default; expected ring/rab to win")
	}
	var buf bytes.Buffer
	PrintAutotune(&buf, rows)
	if !strings.Contains(buf.String(), "allreduce\t24") {
		t.Fatal("autotune printer produced no rows")
	}
}

func TestMachineForRejectsUnknown(t *testing.T) {
	if _, err := MachineFor("hypercube"); err == nil {
		t.Fatal("unknown topology accepted")
	}
	for _, topo := range []string{"", "plafrim", "fatnode"} {
		mk, err := MachineFor(topo)
		if err != nil {
			t.Fatal(err)
		}
		m := mk(16)
		if err := m.Validate(); err != nil {
			t.Fatalf("%q machine invalid: %v", topo, err)
		}
		if m.Topo.Leaves() < 16 {
			t.Fatalf("%q machine too small for np=16: %d cores", topo, m.Topo.Leaves())
		}
	}
}

// TestDriversDeterministic runs each driver whose table is checked in
// (guidelines, autotune sweep, Fig. 5) twice in one process and requires
// byte-identical printed output: these numbers are called exact, so they
// must not depend on host scheduling.
func TestDriversDeterministic(t *testing.T) {
	drivers := map[string]func(*bytes.Buffer) error{
		"guidelines": func(buf *bytes.Buffer) error {
			rows, err := Guidelines(GuidelinesConfig{Topo: "fatnode", NPs: []int{8, 12}, Blocks: []int{64, 4096}, Reps: 2})
			PrintGuidelines(buf, rows)
			return err
		},
		"autotune": func(buf *bytes.Buffer) error {
			rows, _, err := AutotuneSweep(AutotuneConfig{Topo: "plafrim", Ops: []coll.Op{coll.OpAllreduce},
				NPs: []int{24}, Sizes: []int{4096, 262144}, Reps: 2})
			PrintAutotune(buf, rows)
			return err
		},
		"collopt": func(buf *bytes.Buffer) error {
			rows, err := CollectiveOpt(CollOptConfig{Op: "bcast", NPs: []int{48}, BufSizes: []int{5000}, Reps: 3})
			PrintCollOpt(buf, rows)
			return err
		},
	}
	for name, run := range drivers {
		t.Run(name, func(t *testing.T) {
			var a, b bytes.Buffer
			if err := run(&a); err != nil {
				t.Fatal(err)
			}
			if err := run(&b); err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("two runs printed different tables:\n%s\nvs\n%s", a.String(), b.String())
			}
		})
	}
}

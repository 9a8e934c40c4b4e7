package reorder

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
	"mpimon/internal/topology"
)

func TestNewOptionsDefaultsAndOpts(t *testing.T) {
	o := NewOptions()
	if *o != DefaultOptions {
		t.Fatalf("NewOptions() = %+v, want DefaultOptions %+v", *o, DefaultOptions)
	}
	o = NewOptions(
		WithFlags(monitoring.P2POnly),
		WithMappingTimeout(time.Second),
		WithRetries(3),
		WithBackoff(time.Millisecond),
		WithChargeMappingTime(false),
		WithFixedMappingTime(2*time.Microsecond),
		WithoutIdentityFallback(),
	)
	want := Options{
		Flags:              monitoring.P2POnly,
		MappingTimeout:     time.Second,
		MaxRetries:         3,
		RetryBackoff:       time.Millisecond,
		ChargeMappingTime:  false,
		FixedMappingTime:   2 * time.Microsecond,
		NoIdentityFallback: true,
	}
	if *o != want {
		t.Fatalf("NewOptions(...) = %+v, want %+v", *o, want)
	}
}

// swapMapFn installs a failing/hanging mapping function for one test.
func swapMapFn(t *testing.T, fn func(sm *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error)) {
	t.Helper()
	prev := mapFn.Swap(&fn)
	t.Cleanup(func() { mapFn.Store(prev) })
}

// ringPhase gives the session a non-empty matrix to gather.
func ringPhase(c *mpi.Comm) error {
	np := c.Size()
	next, prev := (c.Rank()+1)%np, (c.Rank()-1+np)%np
	if err := c.Send(next, 0, make([]byte, 1000)); err != nil {
		return err
	}
	_, err := c.Recv(prev, 0, nil)
	return err
}

// runReorder executes MonitorAndReorder on a fresh world and returns the
// permutation (from rank 0's perspective) and the error rank 0 saw.
func runReorder(t *testing.T, opts *Options, tel *telemetry.Telemetry) (k []int, reorderErr error) {
	t.Helper()
	const np = 4
	wopts := []mpi.Option{}
	if tel != nil {
		wopts = append(wopts, mpi.WithTelemetry(tel))
	}
	w, err := mpi.NewWorld(testMachine(2, 2), np, wopts...)
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		opt, kk, err := MonitorAndReorderOptions(env, c, opts, ringPhase)
		if c.Rank() == 0 {
			k, reorderErr = kk, err
		}
		if err != nil {
			return nil // expected by the NoIdentityFallback tests
		}
		return opt.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, reorderErr
}

func TestReorderRetryExhaustionFallsBackToIdentity(t *testing.T) {
	var calls atomic.Int32
	swapMapFn(t, func(sm *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		calls.Add(1)
		return nil, errors.New("synthetic mapping failure")
	})
	tel := telemetry.New()
	opts := NewOptions(WithRetries(2), WithBackoff(time.Millisecond), WithFixedMappingTime(time.Microsecond))
	k, err := runReorder(t, opts, tel)
	if err != nil {
		t.Fatalf("Reorder should degrade, not fail: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("mapping attempted %d times, want 3 (1 + 2 retries)", got)
	}
	for i, v := range k {
		if v != i {
			t.Fatalf("fallback permutation %v is not the identity", k)
		}
	}
	reg := tel.Registry()
	if n := reg.CounterTotal("mpimon_reorder_retries_total"); n != 2 {
		t.Errorf("retries counter = %d, want 2", n)
	}
	if n := reg.CounterTotal("mpimon_reorder_fallback_total"); n != 1 {
		t.Errorf("fallback counter = %d, want 1", n)
	}
}

func TestReorderRetrySucceedsEventually(t *testing.T) {
	var calls atomic.Int32
	real := *mapFn.Load()
	swapMapFn(t, func(sm *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient failure")
		}
		return real(sm, topo, place)
	})
	tel := telemetry.New()
	opts := NewOptions(WithRetries(5), WithFixedMappingTime(time.Microsecond))
	k, err := runReorder(t, opts, tel)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("mapping attempted %d times, want 3", calls.Load())
	}
	if n := tel.Registry().CounterTotal("mpimon_reorder_fallback_total"); n != 0 {
		t.Errorf("fallback counter = %d, want 0 (mapping succeeded)", n)
	}
	seen := make(map[int]bool)
	for _, v := range k {
		seen[v] = true
	}
	if len(seen) != len(k) {
		t.Fatalf("k = %v is not a permutation", k)
	}
}

func TestReorderMappingTimeout(t *testing.T) {
	swapMapFn(t, func(sm *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		time.Sleep(10 * time.Second)
		return nil, errors.New("unreachable")
	})
	opts := NewOptions(
		WithMappingTimeout(20*time.Millisecond),
		WithFixedMappingTime(time.Microsecond),
		WithoutIdentityFallback(),
	)
	_, err := runReorder(t, opts, nil)
	if !errors.Is(err, mpi.ErrTimeout) {
		t.Fatalf("Reorder with hung mapping: %v, want mpi.ErrTimeout", err)
	}
}

func TestReorderNoFallbackPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	swapMapFn(t, func(sm *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		return nil, fmt.Errorf("mapping: %w", boom)
	})
	opts := NewOptions(WithFixedMappingTime(time.Microsecond), WithoutIdentityFallback())
	_, err := runReorder(t, opts, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Reorder without fallback: %v, want the mapping error", err)
	}
}

func TestReorderBackoffChargesVirtualTime(t *testing.T) {
	swapMapFn(t, func(sm *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		return nil, errors.New("always fails")
	})
	elapsed := func(backoff time.Duration) time.Duration {
		const np = 4
		// The event engine keeps both runs' clocks exact; the goroutine
		// engine orders NIC contention by host scheduling.
		w, err := mpi.NewWorld(testMachine(2, 2), np, mpi.WithEngine(mpi.EngineEvent))
		if err != nil {
			t.Fatal(err)
		}
		opts := NewOptions(WithRetries(3), WithBackoff(backoff), WithFixedMappingTime(time.Microsecond))
		err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
			env, err := monitoring.Init(c.Proc())
			if err != nil {
				return err
			}
			defer env.Finalize()
			_, _, err = MonitorAndReorder(env, c, ringPhase, WithOptions(opts))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}
	fast := elapsed(0)
	slow := elapsed(time.Millisecond)
	// 3 retries with base 1 ms: 1 + 2 + 4 = 7 ms of virtual backoff.
	if got := slow - fast; got != 7*time.Millisecond {
		t.Fatalf("backoff added %v of virtual time, want 7ms", got)
	}
}

// Chaos harness: sweeps fault plans × seeds × algorithms × backends and
// asserts the solver's robustness contract — a solve under injected faults
// either returns a residual-verified solution or a typed fault error; it
// never crashes the process and never hangs past the watchdog.
package fault_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/fault"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

func chaosSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.Factorize(gen.S2D9pt(24, 24, 31), core.FactorOptions{TreeDepth: 3, MaxSupernode: 8})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func chaosRHS(sys *core.System, seed int64) *sparse.Panel {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewPanel(sys.A.N, 1)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return b
}

type chaosConfig struct {
	name string
	cfg  core.Config
	cpu  bool // runnable on the goroutine pool backend
}

func chaosConfigs() []chaosConfig {
	return []chaosConfig{
		{"proposed-3d", core.Config{
			Layout: grid.Layout{Px: 2, Py: 2, Pz: 2}, Algorithm: trsv.Proposed3D,
			Trees: ctree.Binary, Machine: machine.CoriHaswell(),
		}, true},
		{"baseline-3d", core.Config{
			Layout: grid.Layout{Px: 2, Py: 2, Pz: 2}, Algorithm: trsv.Baseline3D,
			Trees: ctree.Binary, Machine: machine.CoriHaswell(),
		}, true},
		{"gpu-single", core.Config{
			Layout: grid.Layout{Px: 1, Py: 1, Pz: 4}, Algorithm: trsv.GPUSingle,
			Machine: machine.PerlmutterGPU(),
		}, false},
		{"gpu-multi", core.Config{
			Layout: grid.Layout{Px: 2, Py: 1, Pz: 2}, Algorithm: trsv.GPUMulti,
			Machine: machine.PerlmutterGPU(),
		}, false},
	}
}

// chaosPlans returns the fault plans of the sweep, parameterized by seed.
// The jitter magnitude differs per backend: virtual seconds on the DES are
// commensurate with modeled network latencies; wall seconds on the pool
// must stay small to keep the test fast.
func chaosPlans(seed int64, jitter float64) map[string]*fault.Plan {
	return map[string]*fault.Plan{
		"healthy":   nil,
		"straggler": {Seed: seed, Straggler: map[int]float64{0: 3}},
		"jitter":    {Seed: seed, Jitter: jitter},
		"drop":      {Seed: seed, Drops: []fault.DropRule{{Src: fault.Wildcard, Dst: fault.Wildcard, Tag: fault.Wildcard, Count: 1}}},
		"crash":     {Seed: seed, Crash: map[int]float64{1: 0}},
	}
}

// checkOutcome enforces the chaos contract on one solve result.
func checkOutcome(t *testing.T, s *core.Solver, b, x *sparse.Panel, err error) {
	t.Helper()
	if err == nil {
		if r := s.Residual(x, b); !(r <= 1e-6) {
			t.Fatalf("fault-free outcome but residual %g", r)
		}
		return
	}
	if !fault.IsFault(err) {
		t.Fatalf("failure is not a typed fault error: %v", err)
	}
}

func TestChaosSimBackend(t *testing.T) {
	sys := chaosSystem(t)
	for _, cc := range chaosConfigs() {
		for _, seed := range []int64{1, 2, 3} {
			for name, plan := range chaosPlans(seed, 1e-4) {
				cfg := cc.cfg
				cfg.Backend = trsv.SimBackend{Opts: runtime.Options{Faults: plan}}
				s, err := core.NewSolver(sys, cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", cc.name, name, err)
				}
				b := chaosRHS(sys, seed)
				x, _, err := s.Solve(b)
				t.Logf("%s/%s/seed=%d: err=%v", cc.name, name, seed, err)
				checkOutcome(t, s, b, x, err)
				// Benign perturbations must not break the solve.
				if (name == "healthy" || name == "straggler" || name == "jitter") && err != nil {
					t.Fatalf("%s/%s/seed=%d: benign plan failed: %v", cc.name, name, seed, err)
				}
				// Lost messages and dead ranks must be diagnosed, not
				// silently absorbed.
				if (name == "drop" || name == "crash") && err == nil {
					t.Fatalf("%s/%s/seed=%d: %s plan reported success", cc.name, name, seed, name)
				}
			}
		}
	}
}

// TestChaosDeterminism pins the DES guarantee: two runs of one fault plan
// produce bit-identical per-rank clocks, because every PRNG draw happens in
// global event order on the single simulation thread.
func TestChaosDeterminism(t *testing.T) {
	sys := chaosSystem(t)
	for _, cc := range chaosConfigs() {
		plan := &fault.Plan{Seed: 7, Jitter: 1e-4, Straggler: map[int]float64{0: 2}}
		cfg := cc.cfg
		cfg.Backend = trsv.SimBackend{Opts: runtime.Options{Faults: plan}}
		s, err := core.NewSolver(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := chaosRHS(sys, 7)
		_, repA, err := s.Solve(b)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		_, repB, err := s.Solve(b)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		for i := range repA.Raw.Clocks {
			if repA.Raw.Clocks[i] != repB.Raw.Clocks[i] {
				t.Fatalf("%s: rank %d clock %g vs %g — injected run not bit-deterministic",
					cc.name, i, repA.Raw.Clocks[i], repB.Raw.Clocks[i])
			}
		}
	}
}

func TestChaosPoolBackend(t *testing.T) {
	sys := chaosSystem(t)
	const stall = 250 * time.Millisecond
	for _, cc := range chaosConfigs() {
		if !cc.cpu {
			continue // GPU algorithms are simulation-only
		}
		for name, plan := range chaosPlans(1, 0.002) {
			cfg := cc.cfg
			cfg.Backend = trsv.PoolBackend{Pool: runtime.Pool{
				Timeout: 30 * time.Second,
				Opts:    runtime.Options{Faults: plan, StallTimeout: stall},
			}}
			s, err := core.NewSolver(sys, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", cc.name, name, err)
			}
			b := chaosRHS(sys, 1)
			start := time.Now()
			x, _, err := s.Solve(b)
			elapsed := time.Since(start)
			t.Logf("%s/%s: err=%v (%v)", cc.name, name, err, elapsed)
			checkOutcome(t, s, b, x, err)
			if (name == "healthy" || name == "straggler" || name == "jitter") && err != nil {
				t.Fatalf("%s/%s: benign plan failed on pool: %v", cc.name, name, err)
			}
			if (name == "drop" || name == "crash") && err == nil {
				t.Fatalf("%s/%s: %s plan reported success on pool", cc.name, name, name)
			}
			// The watchdog, not the coarse pool timeout, must catch stalls:
			// even the deadlocking plans resolve within a small multiple of
			// the stall deadline.
			if elapsed > 20*stall {
				t.Fatalf("%s/%s: solve took %v, watchdog (deadline %v) should have fired sooner",
					cc.name, name, elapsed, stall)
			}
		}
	}
}

// TestChaosSolverReusableAfterFault pins satellite (c): a Solver that just
// returned a fault error must produce a clean, residual-verified solution
// on the next call — pooled per-solve state cannot stay poisoned.
func TestChaosSolverReusableAfterFault(t *testing.T) {
	sys := chaosSystem(t)
	// Backend faults only live in the backend, so build one solver with a
	// crashing backend, fail a solve, then solve cleanly on a fresh solver
	// sharing the same system; and separately exercise the same-solver path
	// through a poisoned RHS (which exercises the buffer pool directly).
	cfg := core.Config{
		Layout: grid.Layout{Px: 2, Py: 2, Pz: 2}, Algorithm: trsv.Proposed3D,
		Trees: ctree.Binary, Machine: machine.CoriHaswell(),
	}
	s, err := core.NewSolver(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := chaosRHS(sys, 5)

	// 1. Fail with a poisoned RHS (NaN) — uses and returns pooled buffers.
	bad := b.Clone()
	bad.Data[37] = math.NaN()
	if _, _, err := s.Solve(bad); err == nil || !fault.IsFault(err) {
		t.Fatalf("poisoned RHS not rejected as fault: %v", err)
	}

	// 2. The same solver must now solve cleanly.
	x, _, err := s.Solve(b)
	if err != nil {
		t.Fatalf("solve after fault failed: %v", err)
	}
	if r := s.Residual(x, b); r > 1e-6 {
		t.Fatalf("residual %g after recovering from fault", r)
	}

	// 3. Fail with an injected crash, then solve cleanly again: the solver
	// alternates fault plans via distinct solvers over one shared system.
	cfgCrash := cfg
	cfgCrash.Backend = trsv.SimBackend{Opts: runtime.Options{Faults: &fault.Plan{Crash: map[int]float64{0: 0}}}}
	sc, err := core.NewSolver(sys, cfgCrash)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Solve(b); err == nil || !fault.IsFault(err) {
		t.Fatalf("crash plan did not fail: %v", err)
	}
	x, _, err = s.Solve(b)
	if err != nil {
		t.Fatalf("clean solver affected by crashed sibling: %v", err)
	}
	if r := s.Residual(x, b); r > 1e-6 {
		t.Fatalf("residual %g on shared-system re-solve", r)
	}
}

package tune

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sptrsv/internal/core"
	"sptrsv/internal/gen"
	"sptrsv/internal/machine"
)

// smallSystem factors one generated analog at small scale with a tree deep
// enough for Pz up to 16.
func smallSystem(t *testing.T, name string) *core.System {
	t.Helper()
	m := gen.Named(name, gen.Small)
	sys, err := core.Factorize(m.A, core.FactorOptions{TreeDepth: 4})
	if err != nil {
		t.Fatalf("factorize %s: %v", name, err)
	}
	return sys
}

// TestSpaceCandidatesValid is the property test of the space generator:
// for random System shapes, machine models, and rank budgets, every
// candidate Space emits is distinct and passes core.NewSolver validation
// (the full constructor, not just the validator).
func TestSpaceCandidatesValid(t *testing.T) {
	prop := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 24 + rng.Intn(56)
		a := gen.RandomDD(rng, n, 0.05+0.15*rng.Float64())
		sys, err := core.Factorize(a, core.FactorOptions{TreeDepth: 1 + rng.Intn(3), MaxSupernode: 4 + rng.Intn(8)})
		if err != nil {
			t.Logf("factorize: %v", err)
			return false
		}
		m := machine.CoriHaswell()
		if seed%2 == 1 {
			m = machine.PerlmutterGPU()
		}
		p := 1 + rng.Intn(32)
		space := Space(sys, m, p)
		if len(space) == 0 {
			t.Logf("empty space for n=%d p=%d", n, p)
			return false
		}
		seen := map[string]bool{}
		for _, cfg := range space {
			if seen[candKey(cfg)] {
				t.Logf("candidate %s emitted twice", candKey(cfg))
				return false
			}
			seen[candKey(cfg)] = true
			if cfg.Layout.Size() != p {
				t.Logf("candidate %s uses %d ranks, budget %d", candKey(cfg), cfg.Layout.Size(), p)
				return false
			}
			if _, err := core.NewSolver(sys, cfg); err != nil {
				t.Logf("candidate %s rejected by NewSolver: %v", candKey(cfg), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDeterminism: two AutoConfig runs on the same System pick the
// identical configuration and report identical makespans, despite the
// concurrent probe stage.
func TestRunDeterminism(t *testing.T) {
	sys := smallSystem(t, "s2d9pt")
	m := machine.CoriHaswell()
	r1, err := Run(sys, m, 16, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sys, m, 16, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if candKey(r1.Config) != candKey(r2.Config) {
		t.Fatalf("non-deterministic choice: %s vs %s", candKey(r1.Config), candKey(r2.Config))
	}
	if r1.Makespan != r2.Makespan || r1.DefaultMakespan != r2.DefaultMakespan {
		t.Fatalf("non-deterministic makespans: %g/%g vs %g/%g",
			r1.Makespan, r1.DefaultMakespan, r2.Makespan, r2.DefaultMakespan)
	}
}

// TestRunNearOptimal is the acceptance check: on every analog at small
// scale, the tuned config's DES makespan is within 10% of the
// exhaustive-sweep optimum and never slower than the fixed default
// {Proposed3D, Px≈Py, Pz=1, AutoTrees}.
func TestRunNearOptimal(t *testing.T) {
	const p = 16
	m := machine.CoriHaswell()
	for _, name := range gen.SuiteNames() {
		sys := smallSystem(t, name)
		res, err := Run(sys, m, p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Makespan > res.DefaultMakespan*(1+1e-12) {
			t.Errorf("%s: tuned %g slower than default %g", name, res.Makespan, res.DefaultMakespan)
		}
		// Exhaustive sweep over the whole space with the same probe RHS.
		b := probeRHS(sys, 1)
		bestTime := math.Inf(1)
		bestKey := ""
		for _, cfg := range Space(sys, m, p) {
			tm, err := probe(sys, cfg, b)
			if err != nil {
				t.Fatalf("%s: exhaustive probe %s: %v", name, candKey(cfg), err)
			}
			if tm < bestTime {
				bestTime, bestKey = tm, candKey(cfg)
			}
		}
		if res.Makespan > 1.10*bestTime {
			t.Errorf("%s: tuned %s = %g exceeds 110%% of sweep optimum %s = %g",
				name, candKey(res.Config), res.Makespan, bestKey, bestTime)
		}
		t.Logf("%s: tuned %s %.4g s (default %.4g s, optimum %s %.4g s, %d/%d probed)",
			name, candKey(res.Config), res.Makespan, res.DefaultMakespan, bestKey, bestTime, res.Probes, res.SpaceSize)
	}
}

// TestRunGPUSpace: on a GPU machine model the space includes the GPU
// algorithms, and the tuned result is a runnable configuration.
func TestRunGPUSpace(t *testing.T) {
	sys := smallSystem(t, "s1mat")
	m := machine.PerlmutterGPU()
	space := Space(sys, m, 8)
	var gpuCands int
	for _, cfg := range space {
		if cfg.Machine.GPU != nil && (cfg.Algorithm.String() == "gpu-single" || cfg.Algorithm.String() == "gpu-multi") {
			gpuCands++
		}
	}
	if gpuCands == 0 {
		t.Fatalf("no GPU candidates in space of %d", len(space))
	}
	res, err := Run(sys, m, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewSolver(sys, res.Config); err != nil {
		t.Fatalf("tuned config not runnable: %v", err)
	}
}

// TestWarmCacheZeroProbes: a second Run with a warm cache performs zero
// probe solves and returns the same configuration, including through a
// from-disk reload.
func TestWarmCacheZeroProbes(t *testing.T) {
	sys := smallSystem(t, "ldoor")
	m := machine.CoriHaswell()
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(sys, m, 16, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromCache || cold.Probes == 0 {
		t.Fatalf("cold run should probe: fromCache=%v probes=%d", cold.FromCache, cold.Probes)
	}
	warm, err := Run(sys, m, 16, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache || warm.Probes != 0 {
		t.Fatalf("warm run not served from cache: fromCache=%v probes=%d", warm.FromCache, warm.Probes)
	}
	if candKey(warm.Config) != candKey(cold.Config) || warm.Makespan != cold.Makespan {
		t.Fatalf("warm config %s (%g) differs from cold %s (%g)",
			candKey(warm.Config), warm.Makespan, candKey(cold.Config), cold.Makespan)
	}
	// A fresh Cache handle over the same directory sees the entry too.
	reloaded, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(sys, m, 16, Options{Cache: reloaded})
	if err != nil {
		t.Fatal(err)
	}
	if !again.FromCache || candKey(again.Config) != candKey(cold.Config) {
		t.Fatalf("reloaded cache missed: fromCache=%v config=%s", again.FromCache, candKey(again.Config))
	}
}

// TestRunRejectsBadBudget covers the error paths.
func TestRunRejectsBadBudget(t *testing.T) {
	sys := smallSystem(t, "gaas")
	if _, err := Run(sys, machine.CoriHaswell(), 0, Options{}); err == nil {
		t.Fatal("p=0 accepted")
	}
}

// Elastic chaos sweep: the same fault plans as the strict harness, plus the
// network-straggler plan elasticity exists for, run in elastic mode. The
// contract tightens rather than loosens — every success must carry a
// refinement-verified residual, crashes must still be diagnosed, and the
// DES runs must stay bit-deterministic even while deadlines force progress.
package fault_test

import (
	"math/rand"
	"testing"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/fault"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// elasticChaosConfigs is the strict chaos matrix switched to elastic
// execution at a staleness bound tight enough that the straggler plans
// actually force stale reads (the chaos system is ~30 levels deep).
func elasticChaosConfigs() []chaosConfig {
	out := chaosConfigs()
	for i := range out {
		out[i].cfg.Staleness = 8
	}
	return out
}

// elasticChaosPlans extends the strict plan sweep with a network straggler:
// every message rank 0 sends is delivered `delay` late. Under strict mode
// that plan serializes the receivers on each late hop; under elastic mode
// the receivers hit their staleness deadlines, force progress, and
// refinement repairs the stale reads.
func elasticChaosPlans(seed int64, jitter, delay float64) map[string]*fault.Plan {
	plans := chaosPlans(seed, jitter)
	plans["net-delay"] = &fault.Plan{Seed: seed, NetDelay: map[int]float64{0: delay}}
	return plans
}

// checkElasticOutcome layers the elastic contract on top of checkOutcome: a
// successful elastic solve is not merely residual-checked after the fact —
// the refinement loop must itself have verified it against the (default)
// tolerance, and the report must say so.
func checkElasticOutcome(t *testing.T, s *core.Solver, b, x *sparse.Panel, rep *core.Report, err error) {
	t.Helper()
	checkOutcome(t, s, b, x, err)
	if err == nil && !(rep.Residual <= 1e-8) {
		t.Fatalf("elastic success but reported refined residual %g above default tolerance", rep.Residual)
	}
}

func TestChaosElasticSimBackend(t *testing.T) {
	sys := chaosSystem(t)
	for _, cc := range elasticChaosConfigs() {
		for _, seed := range []int64{1, 2, 3} {
			for name, plan := range elasticChaosPlans(seed, 1e-4, 5e-3) {
				cfg := cc.cfg
				cfg.Backend = trsv.SimBackend{Opts: runtime.Options{Faults: plan}}
				s, err := core.NewSolver(sys, cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", cc.name, name, err)
				}
				b := chaosRHS(sys, seed)
				x, rep, err := s.Solve(b)
				if rep != nil {
					t.Logf("%s/%s/seed=%d: err=%v stale=%d refine=%d",
						cc.name, name, seed, err, rep.StaleSupernodes, rep.RefinePasses)
				}
				checkElasticOutcome(t, s, b, x, rep, err)
				// Everything short of losing state must now succeed: the
				// straggler plans are exactly what elasticity absorbs.
				if name != "drop" && name != "crash" && err != nil {
					t.Fatalf("%s/%s/seed=%d: recoverable plan failed under elastic: %v", cc.name, name, seed, err)
				}
				// A dead rank loses state no refinement pass can rebuild.
				if name == "crash" && err == nil {
					t.Fatalf("%s/%s/seed=%d: crash plan reported success", cc.name, name, seed)
				}
				// Dropped messages may go either way: a deadline can force
				// past the hole and refinement repair it (success), or the
				// strict prelude of the run can still diagnose the loss
				// (typed fault). checkElasticOutcome already accepted both.
			}
		}
	}
}

// TestChaosElasticDeterminism pins that forcing does not break the DES
// guarantee: two same-seed elastic runs under a straggler severe enough to
// trigger stale reads produce bit-identical solutions, clocks, and tallies.
func TestChaosElasticDeterminism(t *testing.T) {
	sys := chaosSystem(t)
	for _, cc := range elasticChaosConfigs() {
		cfg := cc.cfg
		cfg.Backend = trsv.SimBackend{Opts: runtime.Options{Faults: &fault.Plan{Seed: 7, Jitter: 1e-4, NetDelay: map[int]float64{0: 5e-3}}}}
		s, err := core.NewSolver(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := chaosRHS(sys, 7)
		xa, repA, err := s.Solve(b)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		xb, repB, err := s.Solve(b)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		if repA.StaleSupernodes == 0 {
			t.Fatalf("%s: straggler plan forced nothing — determinism test is vacuous", cc.name)
		}
		if repA.StaleSupernodes != repB.StaleSupernodes || repA.RefinePasses != repB.RefinePasses {
			t.Fatalf("%s: stale=%d/%d refine=%d/%d across same-seed runs",
				cc.name, repA.StaleSupernodes, repB.StaleSupernodes, repA.RefinePasses, repB.RefinePasses)
		}
		for i := range repA.Raw.Clocks {
			if repA.Raw.Clocks[i] != repB.Raw.Clocks[i] {
				t.Fatalf("%s: rank %d clock %g vs %g — forced elastic run not bit-deterministic",
					cc.name, i, repA.Raw.Clocks[i], repB.Raw.Clocks[i])
			}
		}
		for i := range xa.Data {
			if xa.Data[i] != xb.Data[i] {
				t.Fatalf("%s: x[%d] %g vs %g — refined solution not bit-deterministic",
					cc.name, i, xa.Data[i], xb.Data[i])
			}
		}
	}
}

func TestChaosElasticPoolBackend(t *testing.T) {
	sys := chaosSystem(t)
	const stall = 250 * time.Millisecond
	for _, cc := range elasticChaosConfigs() {
		if !cc.cpu {
			continue // GPU algorithms are simulation-only
		}
		// The pool backend sleeps injected delays in wall time, so keep the
		// straggler small; jitter matches the strict pool sweep.
		for name, plan := range elasticChaosPlans(1, 0.002, 0.002) {
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
			x, rep, err := s.Solve(b)
			if rep != nil {
				t.Logf("%s/%s: err=%v stale=%d refine=%d", cc.name, name, err, rep.StaleSupernodes, rep.RefinePasses)
			}
			checkElasticOutcome(t, s, b, x, rep, err)
			if name != "drop" && name != "crash" && err != nil {
				t.Fatalf("%s/%s: recoverable plan failed on elastic pool: %v", cc.name, name, err)
			}
			if name == "crash" && err == nil {
				t.Fatalf("%s/%s: crash plan reported success on elastic pool", cc.name, name)
			}
		}
	}
}

// TestElasticRefinementContract is the property test over random straggler
// plans: for random ranks and delay magnitudes spanning decades, an elastic
// solve either returns a solution whose refinement loop verified the
// residual against the tolerance, or a typed fault — across all four
// algorithms on the DES, and the CPU algorithms on the pool.
func TestElasticRefinementContract(t *testing.T) {
	sys := chaosSystem(t)
	rng := rand.New(rand.NewSource(41))
	for _, cc := range elasticChaosConfigs() {
		p := cc.cfg.Layout.Size()
		for trial := 0; trial < 4; trial++ {
			rank := rng.Intn(p)
			delay := 1e-4 * pow10(rng.Intn(3)) * (1 + rng.Float64()) // 1e-4 .. 2e-2 virtual s
			plan := &fault.Plan{Seed: int64(trial + 1), NetDelay: map[int]float64{rank: delay}}

			cfg := cc.cfg
			cfg.Backend = trsv.SimBackend{Opts: runtime.Options{Faults: plan}}
			s, err := core.NewSolver(sys, cfg)
			if err != nil {
				t.Fatalf("%s: %v", cc.name, err)
			}
			b := chaosRHS(sys, int64(trial))
			x, rep, err := s.Solve(b)
			t.Logf("%s: rank=%d delay=%.2gms err=%v stale=%d refine=%d",
				cc.name, rank, delay*1e3, err, rep.StaleSupernodes, rep.RefinePasses)
			checkElasticOutcome(t, s, b, x, rep, err)
			if err != nil {
				t.Fatalf("%s: straggler rank=%d delay=%g must be recoverable: %v", cc.name, rank, delay, err)
			}

			if !cc.cpu {
				continue
			}
			// Same plan through the goroutine pool (real wall-clock delays,
			// so scale the virtual delay down to keep the test fast).
			pcfg := cc.cfg
			pplan := &fault.Plan{Seed: int64(trial + 1), NetDelay: map[int]float64{rank: delay / 10}}
			pcfg.Backend = trsv.PoolBackend{Pool: runtime.Pool{
				Timeout: 30 * time.Second,
				Opts:    runtime.Options{Faults: pplan, StallTimeout: 250 * time.Millisecond},
			}}
			ps, err := core.NewSolver(sys, pcfg)
			if err != nil {
				t.Fatalf("%s/pool: %v", cc.name, err)
			}
			px, prep, err := ps.Solve(b)
			if prep != nil {
				t.Logf("%s/pool: err=%v stale=%d refine=%d", cc.name, err, prep.StaleSupernodes, prep.RefinePasses)
			}
			checkElasticOutcome(t, ps, b, px, prep, err)
			if err != nil {
				t.Fatalf("%s/pool: straggler must be recoverable: %v", cc.name, err)
			}
		}
	}
}

func pow10(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 10
	}
	return v
}

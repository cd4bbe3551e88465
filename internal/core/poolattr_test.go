package core

import (
	"math/rand"
	"testing"
	"time"

	"sptrsv/internal/ctree"
	"sptrsv/internal/fault"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// poolSolver1 builds a single-rank (1×1×1) proposed-3d solver on the pool
// backend and a random right-hand side for it.
func poolSolver1(t *testing.T) (*Solver, *sparse.Panel) {
	t.Helper()
	sys, err := Factorize(gen.S2D9pt(48, 48, 31), FactorOptions{TreeDepth: 3, MaxSupernode: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(sys, Config{
		Layout:    grid.Layout{Px: 1, Py: 1, Pz: 1},
		Algorithm: trsv.Proposed3D,
		Trees:     ctree.Binary,
		Machine:   machine.CoriHaswell(),
		Backend:   trsv.PoolBackend{Pool: runtime.Pool{Timeout: 60 * time.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := sparse.NewPanel(sys.A.N, 1)
	rng := rand.New(rand.NewSource(5))
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return s, b
}

// TestPoolMeanFPIsBusyTime pins the pool's compute-time attribution at the
// solver: a single rank never waits on a peer, so nearly all of its clock
// is FP time. Timing each nil-closure Compute call instead would report a
// small fraction of it, because the algorithms run their kernels before
// the call that labels them.
func TestPoolMeanFPIsBusyTime(t *testing.T) {
	s, b := poolSolver1(t)
	if _, _, err := s.Solve(b); err != nil { // warm the buffer pools
		t.Fatal(err)
	}
	_, rep, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	clock := rep.Raw.Clocks[0]
	if rep.MeanFP < 0.5*clock {
		t.Fatalf("MeanFP %.3gs on a %.3gs single-rank solve (%.2f of the clock), want ≥ 0.5",
			rep.MeanFP, clock, rep.MeanFP/clock)
	}
}

// TestPoolStragglerMeasuresRealWork pins that a straggled pool rank sleeps
// off its slowdown in proportion to the work it really does: at factor 3
// the injected stall is about twice the healthy solve time C. The bound
// asks for half of that, 0.5 × 2 × C, so scheduler noise cannot fail it,
// while straggling the near-empty Compute calls instead stays far below.
func TestPoolStragglerMeasuresRealWork(t *testing.T) {
	s, b := poolSolver1(t)
	healthy := 0.0
	for i := 0; i < 5; i++ {
		_, rep, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || rep.Time < healthy {
			healthy = rep.Time
		}
	}
	_, rep, err := s.SolveWith(b, SolveSpec{Faults: &fault.Plan{Straggler: map[int]float64{0: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if f := rep.Raw.Timers[0].ByCat[runtime.CatFault]; f < 0.5*2*healthy {
		t.Fatalf("straggler stall %.3gs at factor 3, want ≥ %.3gs (healthy solve %.3gs)",
			f, 0.5*2*healthy, healthy)
	}
}

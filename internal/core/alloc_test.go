package core

import (
	goruntime "runtime"
	"testing"

	"sptrsv/internal/ctree"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// TestPoolSolveAllocsBounded bounds the allocations of one pool solve at
// the pool benchmark's configuration (s2d9pt 64×64, proposed-3d binary on
// 1×1×2, one right-hand side). GOMAXPROCS is at least 2, so the wave
// precompute runs and its result panels are covered too. The per-solve state is slot
// indexed and its panels come from the schedule-sized arena, so what is
// left is per message and per run, not per supernode: a few hundred
// allocations, where map-keyed state and heap-allocated precompute results
// cost about 9,900.
func TestPoolSolveAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector (see raceEnabled)")
	}
	if goruntime.GOMAXPROCS(0) < 2 {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	}
	sys, err := Factorize(gen.S2D9pt(64, 64, 1), FactorOptions{TreeDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(sys, Config{
		Layout:    grid.Layout{Px: 1, Py: 1, Pz: 2},
		Algorithm: trsv.Proposed3D,
		Trees:     ctree.Binary,
		Machine:   machine.CoriHaswell(),
		Backend:   trsv.PoolBackend{},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := sparse.NewPanel(sys.A.N, 1)
	for i := range b.Data {
		b.Data[i] = float64(i%7) - 3
	}
	solve := func() {
		if _, _, err := s.Solve(b); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm the schedule, the state pools and the metric children
	// testing.AllocsPerRun pins GOMAXPROCS to 1, which would switch the
	// wave precompute off, so count mallocs directly over a few solves.
	const runs, bound = 20, 1000
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	goruntime.ReadMemStats(&after)
	if n := float64(after.Mallocs-before.Mallocs) / runs; n > bound {
		t.Fatalf("pool solve allocates %.0f times, bound %d", n, bound)
	}
}

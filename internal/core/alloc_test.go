package core

import (
	"fmt"
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
// 1×1×2, one right-hand side). The per-solve state is slot indexed, its
// panels come from the schedule-sized arena, and each rank is one
// goroutine, so what is left is per rank and per run, not per supernode or
// per wave: about 60 allocations, where map-keyed state and heap-allocated
// panels cost about 9,900.
func TestPoolSolveAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector (see raceEnabled)")
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
	// AllocsPerRun's warm-up run fills the schedule, the state pools and
	// the metric children.
	const bound = 100
	if n := testing.AllocsPerRun(20, solve); n > bound {
		t.Fatalf("pool solve allocates %.0f times, bound %d", n, bound)
	}
}

// TestFingerprintFormattedOnce pins that labelling a solve's metrics with
// the matrix fingerprint allocates nothing: Factorize formats it once.
func TestFingerprintFormattedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector (see raceEnabled)")
	}
	sys, err := Factorize(gen.S2D9pt(8, 8, 1), FactorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("n=%d nnzlu=%d sn=%d depth=%d", sys.A.N, sys.NNZFactors(), sys.SN.SnCount, sys.Tree.Depth)
	if got := sys.Fingerprint(); got != want {
		t.Fatalf("Fingerprint() = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { _ = sys.Fingerprint() }); n != 0 {
		t.Fatalf("Fingerprint allocates %.0f times per call", n)
	}
}

// TestSimSolveAllocsBounded bounds the allocations of one simulated solve
// on the three algorithm shapes of the paper's Fig. 4 and Fig. 10 points
// (s2d9pt 32×32): proposed-3d binary on 4×4×4, baseline-3d flat on 8×8×1
// and gpu-single on 1×1×4. The engine's event queue is typed, payload
// records come from per-solve storage on the sender's state, and receipts
// alias through arena headers, so what is left is per rank and per run: a
// few hundred allocations for thousands of messages or GPU task events,
// where boxed heap events and a heap record per message cost about four
// per message.
func TestSimSolveAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector (see raceEnabled)")
	}
	sys, err := Factorize(gen.S2D9pt(32, 32, 1), FactorOptions{TreeDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	b := sparse.NewPanel(sys.A.N, 1)
	for i := range b.Data {
		b.Data[i] = float64(i%7) - 3
	}
	// One bound for every shape: it does not scale with the message count.
	const runs, bound = 10, 1000
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"proposed-3d/4x4x4", Config{Layout: grid.Layout{Px: 4, Py: 4, Pz: 4}, Algorithm: trsv.Proposed3D,
			Trees: ctree.Binary, Machine: machine.CoriHaswell()}},
		{"baseline-3d/8x8x1", Config{Layout: grid.Layout{Px: 8, Py: 8, Pz: 1}, Algorithm: trsv.Baseline3D,
			Trees: ctree.Flat, Machine: machine.CoriHaswell()}},
		{"gpu-single/1x1x4", Config{Layout: grid.Layout{Px: 1, Py: 1, Pz: 4}, Algorithm: trsv.GPUSingle,
			Trees: ctree.Auto, Machine: machine.PerlmutterGPU()}},
	} {
		s, err := NewSolver(sys, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var msgs int
		solve := func() {
			_, rep, err := s.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			msgs = rep.Raw.TotalMsgs()
		}
		solve() // warm the schedule, the state pools and the metric children
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			solve()
		}
		goruntime.ReadMemStats(&after)
		n := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("%s: %.0f allocations for %d messages per solve", tc.name, n, msgs)
		if n > bound {
			t.Errorf("%s: a simulated solve allocates %.0f times for %d messages, bound %d",
				tc.name, n, msgs, bound)
		}
	}
}

package sptrsv_test

// One testing.B benchmark per table/figure of the paper, each driving the
// same harness as cmd/figures in quick mode (simulated time, real
// numerics), plus wall-clock benchmarks of the goroutine backend and the
// preprocessing pipeline. Run with:
//
//	go test -bench=. -benchmem
//
// For the full-resolution sweeps use cmd/figures.

import (
	"testing"

	"sptrsv"
	"sptrsv/internal/bench"
	"sptrsv/internal/gen"
)

func quick() bench.Config {
	return bench.Config{Scale: gen.Small, Quick: true}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := bench.Table1(quick()); len(rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := bench.Fig4(quick()); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := bench.Breakdown(quick(), "s2d9pt"); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := bench.Breakdown(quick(), "nlpkkt"); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := bench.LoadBalance(quick(), "s2d9pt"); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := bench.LoadBalance(quick(), "nlpkkt"); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := bench.GPUScaling(quick(), "crusher"); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := bench.GPUScaling(quick(), "perlmutter"); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := bench.Fig11(quick()); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// benchSystem builds one reusable factored system for the wall-clock
// benchmarks below.
func benchSystem(b *testing.B) *sptrsv.System {
	b.Helper()
	sys, err := sptrsv.Factorize(sptrsv.S2D9pt(64, 64, 1), sptrsv.FactorOptions{TreeDepth: 3})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkFactorize measures the preprocessing pipeline (ordering,
// symbolic analysis, numeric LU, supernodal packaging).
func BenchmarkFactorize(b *testing.B) {
	a := sptrsv.S2D9pt(64, 64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sptrsv.Factorize(a, sptrsv.FactorOptions{TreeDepth: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialSolve measures the single-threaded supernodal reference.
func BenchmarkSerialSolve(b *testing.B) {
	sys := benchSystem(b)
	rhs := sptrsv.NewPanel(sys.A.N, 1)
	for i := range rhs.Data {
		rhs.Data[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SN.Solve(rhs.PermuteRows(sys.Perm))
	}
}

// benchPoolSolve measures real parallel wall-clock solves on the goroutine
// backend with the given layout and binary trees.
func benchPoolSolve(b *testing.B, px, py, pz, nrhs int) {
	runPoolSolve(b, benchSystem(b), sptrsv.Config{
		Layout: sptrsv.Layout{Px: px, Py: py, Pz: pz},
		Trees:  sptrsv.BinaryTrees,
	}, nrhs)
}

// runPoolSolve solves with the proposed algorithm on the goroutine backend
// for the layout and trees of cfg, reporting solves/s and messages per solve.
func runPoolSolve(b *testing.B, sys *sptrsv.System, cfg sptrsv.Config, nrhs int) {
	cfg.Algorithm, cfg.Machine, cfg.Backend = sptrsv.Proposed3D, sptrsv.CoriHaswell(), sptrsv.GoroutinePool()
	solver, err := sptrsv.NewSolver(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rhs := sptrsv.NewPanel(sys.A.N, nrhs)
	for i := range rhs.Data {
		rhs.Data[i] = 1
	}
	msgs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := solver.Solve(rhs)
		if err != nil {
			b.Fatal(err)
		}
		msgs = rep.Raw.TotalMsgs()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "solves/s")
	b.ReportMetric(float64(msgs), "msgs/solve")
}

func BenchmarkPoolSolve1x1x1(b *testing.B) { benchPoolSolve(b, 1, 1, 1, 1) }

// BenchmarkPoolSolve1x1x2 is the pool layout of perfbench's pool-1rhs
// workload: two ranks, one per grid, one right-hand side.
func BenchmarkPoolSolve1x1x2(b *testing.B) { benchPoolSolve(b, 1, 1, 2, 1) }

// BenchmarkPoolSolve1x1x2RHS16 is the shape of perfbench's pool-16rhs
// workload: the same layout with 16 right-hand sides, kernel-bound.
func BenchmarkPoolSolve1x1x2RHS16(b *testing.B) { benchPoolSolve(b, 1, 1, 2, 16) }

// BenchmarkPoolSolve2x1x1 is the 2D intra-grid path: one 2×1 grid with flat
// trees, one right-hand side, on a system factored with the server's default
// tree depth. Every message it sends is intra-grid. No perfbench workload
// runs this path (the service lays out its 2-rank budget as 1×1×2), so this
// benchmark is its only gate.
func BenchmarkPoolSolve2x1x1(b *testing.B) {
	sys, err := sptrsv.Factorize(sptrsv.S2D9pt(64, 64, 1), sptrsv.FactorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	runPoolSolve(b, sys, sptrsv.Config{
		Layout: sptrsv.Layout{Px: 2, Py: 1, Pz: 1},
		Trees:  sptrsv.FlatTrees,
	}, 1)
}

func BenchmarkPoolSolve2x2x1(b *testing.B) { benchPoolSolve(b, 2, 2, 1, 1) }
func BenchmarkPoolSolve2x2x4(b *testing.B) { benchPoolSolve(b, 2, 2, 4, 1) }
func BenchmarkPoolSolveMulti(b *testing.B) { benchPoolSolve(b, 2, 2, 4, 8) }

// BenchmarkSimSolve measures the simulator's own throughput (events/sec
// matter for the figure sweeps).
func BenchmarkSimSolve(b *testing.B) {
	sys := benchSystem(b)
	solver, err := sptrsv.NewSolver(sys, sptrsv.Config{
		Layout:    sptrsv.Layout{Px: 4, Py: 4, Pz: 4},
		Algorithm: sptrsv.Proposed3D,
		Trees:     sptrsv.BinaryTrees,
		Machine:   sptrsv.CoriHaswell(),
	})
	if err != nil {
		b.Fatal(err)
	}
	rhs := sptrsv.NewPanel(sys.A.N, 1)
	for i := range rhs.Data {
		rhs.Data[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solver.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "solves/s")
}

// BenchmarkSolveBatch measures SolveBatch throughput: 8 independent
// right-hand sides solved concurrently on the goroutine backend by one
// shared Solver, reporting aggregate solves per second.
func BenchmarkSolveBatch(b *testing.B) {
	sys := benchSystem(b)
	solver, err := sptrsv.NewSolver(sys, sptrsv.Config{
		Layout:    sptrsv.Layout{Px: 2, Py: 2, Pz: 1},
		Algorithm: sptrsv.Proposed3D,
		Trees:     sptrsv.BinaryTrees,
		Machine:   sptrsv.CoriHaswell(),
		Backend:   sptrsv.GoroutinePool(),
	})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 8
	bs := make([]*sptrsv.Panel, batch)
	for i := range bs {
		bs[i] = sptrsv.NewPanel(sys.A.N, 1)
		for j := range bs[i].Data {
			bs[i].Data[j] = float64(i + 1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solver.SolveBatch(bs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "solves/s")
}

package sptrsv_test

import (
	"math/rand"
	"strings"
	"testing"

	"sptrsv"
)

// TestPublicAPIEndToEnd exercises the documented workflow exactly as the
// README shows it, on both backends and several algorithms.
func TestPublicAPIEndToEnd(t *testing.T) {
	a := sptrsv.S2D9pt(24, 24, 1)
	sys, err := sptrsv.Factorize(a, sptrsv.FactorOptions{TreeDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b := sptrsv.NewPanel(a.N, 2)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	configs := []sptrsv.Config{
		{Layout: sptrsv.Layout{Px: 2, Py: 2, Pz: 4}, Algorithm: sptrsv.Proposed3D, Trees: sptrsv.AutoTrees, Machine: sptrsv.CoriHaswell()},
		{Layout: sptrsv.Layout{Px: 2, Py: 2, Pz: 4}, Algorithm: sptrsv.Baseline3D, Trees: sptrsv.FlatTrees, Machine: sptrsv.CoriHaswell()},
		{Layout: sptrsv.Layout{Px: 1, Py: 1, Pz: 8}, Algorithm: sptrsv.GPUSingle, Machine: sptrsv.PerlmutterGPU()},
		{Layout: sptrsv.Layout{Px: 4, Py: 1, Pz: 2}, Algorithm: sptrsv.GPUMulti, Trees: sptrsv.BinaryTrees, Machine: sptrsv.CrusherGPU()},
		{Layout: sptrsv.Layout{Px: 2, Py: 2, Pz: 2}, Algorithm: sptrsv.Proposed3D, Trees: sptrsv.BinaryTrees, Machine: sptrsv.CoriHaswell(), Backend: sptrsv.GoroutinePool()},
	}
	for _, cfg := range configs {
		solver, err := sptrsv.NewSolver(sys, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg.Layout, err)
		}
		x, rep, err := solver.Solve(b)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
		if r := solver.Residual(x, b); r > 1e-7 {
			t.Fatalf("%v: residual %g", cfg.Algorithm, r)
		}
		if rep.Time <= 0 {
			t.Fatalf("%v: no time", cfg.Algorithm)
		}
	}
}

// TestPublicAPIAutoSolver exercises the autotuning entry points: tuned
// solver end-to-end, AutoConfig validity, and the persistent cache flow
// through TuneOptions.
func TestPublicAPIAutoSolver(t *testing.T) {
	a := sptrsv.S2D9pt(24, 24, 2)
	sys, err := sptrsv.Factorize(a, sptrsv.FactorOptions{TreeDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := sptrsv.NewAutoSolver(sys, sptrsv.CoriHaswell(), 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b := sptrsv.NewPanel(a.N, 1)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	x, rep, err := solver.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := solver.Residual(x, b); r > 1e-7 {
		t.Fatalf("auto solver residual %g", r)
	}
	if rep.Time <= 0 {
		t.Fatal("auto solver reported no time")
	}

	cfg, err := sptrsv.AutoConfig(sys, sptrsv.CoriHaswell(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sptrsv.ValidateConfig(sys, cfg); err != nil {
		t.Fatalf("AutoConfig returned invalid config: %v", err)
	}

	cache, err := sptrsv.OpenTuneCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sptrsv.Tune(sys, sptrsv.CoriHaswell(), 8, sptrsv.TuneOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sptrsv.Tune(sys, sptrsv.CoriHaswell(), 8, sptrsv.TuneOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache || warm.Probes != 0 {
		t.Fatalf("warm tune not cached: fromCache=%v probes=%d", warm.FromCache, warm.Probes)
	}
	if warm.Config.Layout != cold.Config.Layout || warm.Config.Algorithm != cold.Config.Algorithm {
		t.Fatalf("warm config %+v differs from cold %+v", warm.Config, cold.Config)
	}
}

func TestPublicAPISuiteAndMTX(t *testing.T) {
	suite := sptrsv.Suite("small")
	if len(suite) != 6 {
		t.Fatalf("suite has %d matrices", len(suite))
	}
	// Round-trip one matrix through the Matrix Market exports.
	var sb strings.Builder
	if err := sptrsv.WriteMatrixMarket(&sb, suite[1].A); err != nil {
		t.Fatal(err)
	}
	back, err := sptrsv.ReadMatrixMarket(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != suite[1].A.NNZ() {
		t.Fatal("mtx round trip changed nnz")
	}
}

func TestSuitePanicsOnUnknownScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Suite(\"smal\") should panic, not fall back to a default scale")
		}
	}()
	sptrsv.Suite("smal")
}

func TestPublicAPIBuilder(t *testing.T) {
	// Users can assemble their own matrices.
	b := sptrsv.NewBuilder(3)
	b.Add(0, 0, 4)
	b.Add(1, 1, 4)
	b.Add(2, 2, 4)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	a := b.ToCSR()
	sys, err := sptrsv.Factorize(a, sptrsv.FactorOptions{TreeDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := sptrsv.NewSolver(sys, sptrsv.Config{
		Layout: sptrsv.Layout{Px: 1, Py: 1, Pz: 1}, Machine: sptrsv.CoriHaswell(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rhs := sptrsv.NewPanel(3, 1)
	rhs.Set(0, 0, 5)
	rhs.Set(1, 0, 5)
	rhs.Set(2, 0, 4)
	x, _, err := solver.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	if r := sptrsv.ResidualInf(a, x, rhs); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
	if x.At(2, 0) != 1 {
		t.Fatalf("x[2] = %v, want 1", x.At(2, 0))
	}
}

func TestSquare2DExport(t *testing.T) {
	px, py := sptrsv.Square2D(128)
	if px*py != 128 || px < py {
		t.Fatalf("Square2D(128) = %d,%d", px, py)
	}
}

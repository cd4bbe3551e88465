package core

import (
	"math/rand"
	"testing"

	"sptrsv/internal/ctree"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	sys, err := Factorize(gen.S2D9pt(24, 24, 31), FactorOptions{TreeDepth: 3, MaxSupernode: 8})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestFactorizeBasics(t *testing.T) {
	sys := testSystem(t)
	if sys.SN.N != 576 || sys.Tree.Depth != 3 {
		t.Fatalf("system malformed: n=%d depth=%d", sys.SN.N, sys.Tree.Depth)
	}
	if sys.NNZFactors() <= sys.A.NNZ() {
		t.Fatalf("factor nnz %d should exceed nnz(A) %d", sys.NNZFactors(), sys.A.NNZ())
	}
}

// TestFactorOptionsResolve: options that resolve alike factor alike, the
// tree depth is capped at ⌈log2 n⌉ after defaulting, resolving twice
// changes nothing, and an out-of-range tree depth is an error from
// Factorize, not a panic.
func TestFactorOptionsResolve(t *testing.T) {
	def, err := FactorOptions{}.Resolve(4096)
	if err != nil || def != (FactorOptions{TreeDepth: 6, MaxSupernode: 48}) {
		t.Fatalf("zero options resolve to %+v, %v", def, err)
	}
	if got, _ := (FactorOptions{TreeDepth: 6, MaxSupernode: -1}).Resolve(4096); got != def {
		t.Fatalf("explicit defaults resolve to %+v, want %+v", got, def)
	}
	for _, c := range []struct{ n, depth, want int }{
		{1, 0, 0}, {1, 20, 0},
		{2, 20, 1}, {3, 20, 2}, {4, 20, 2}, {5, 20, 3},
		{32, 0, 5}, {33, 0, 6}, {36, 3, 3}, {36, 20, 6},
		{1024, 0, 6}, {1024, 20, 10}, {4096, 20, 12},
		{1 << 20, 20, 20}, {1<<20 + 1, 20, 20},
	} {
		got, err := FactorOptions{TreeDepth: c.depth}.Resolve(c.n)
		if err != nil || got.TreeDepth != c.want {
			t.Fatalf("n=%d depth=%d: resolved %+v, %v; want depth %d", c.n, c.depth, got, err, c.want)
		}
		if again, err := got.Resolve(c.n); err != nil || again != got {
			t.Fatalf("n=%d depth=%d: resolving %+v again gives %+v, %v", c.n, c.depth, got, again, err)
		}
	}
	a := gen.S2D9pt(8, 8, 1)
	for _, depth := range []int{-1, 21} {
		if _, err := Factorize(a, FactorOptions{TreeDepth: depth}); err == nil {
			t.Fatalf("tree depth %d factorized", depth)
		}
	}
}

func TestSolveOriginalOrdering(t *testing.T) {
	sys := testSystem(t)
	rng := rand.New(rand.NewSource(7))
	for _, algo := range []trsv.Algorithm{trsv.Proposed3D, trsv.Baseline3D} {
		s, err := NewSolver(sys, Config{
			Layout:    grid.Layout{Px: 2, Py: 2, Pz: 4},
			Algorithm: algo,
			Trees:     ctree.Binary,
			Machine:   machine.CoriHaswell(),
		})
		if err != nil {
			t.Fatal(err)
		}
		b := sparse.NewPanel(sys.A.N, 2)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		x, rep, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		// The residual is checked against the ORIGINAL matrix: the solver
		// must round-trip the permutation correctly.
		if r := s.Residual(x, b); r > 1e-7 {
			t.Fatalf("%v: residual %g", algo, r)
		}
		if rep.Time <= 0 {
			t.Fatalf("%v: nonpositive time", algo)
		}
		if len(rep.LSpan) != 16 {
			t.Fatalf("%v: LSpan length %d", algo, len(rep.LSpan))
		}
	}
}

func TestReportBreakdownConsistency(t *testing.T) {
	sys := testSystem(t)
	s, err := NewSolver(sys, Config{
		Layout:    grid.Layout{Px: 2, Py: 2, Pz: 2},
		Algorithm: trsv.Proposed3D,
		Trees:     ctree.Binary,
		Machine:   machine.CoriHaswell(),
	})
	if err != nil {
		t.Fatal(err)
	}
	b := sparse.NewPanel(sys.A.N, 1)
	for i := range b.Data {
		b.Data[i] = 1
	}
	_, rep, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanFP <= 0 || rep.MeanXY <= 0 || rep.MeanZ <= 0 {
		t.Fatalf("breakdown has empty categories: %+v", rep)
	}
	// Per rank: phase spans must sum to (approximately) the finish clock.
	for i, c := range rep.Raw.Clocks {
		sum := rep.LSpan[i] + rep.ZSpan[i] + rep.USpan[i]
		if sum > c+1e-12 {
			t.Fatalf("rank %d spans %g exceed clock %g", i, sum, c)
		}
	}
}

func TestNewSolverValidation(t *testing.T) {
	sys := testSystem(t)
	if _, err := NewSolver(sys, Config{Layout: grid.Layout{Px: 1, Py: 1, Pz: 1}}); err == nil {
		t.Fatal("missing machine accepted")
	}
	if _, err := NewSolver(sys, Config{
		Layout:  grid.Layout{Px: 1, Py: 1, Pz: 3},
		Machine: machine.CoriHaswell(),
	}); err == nil {
		t.Fatal("non-power-of-two Pz accepted")
	}
	if _, err := NewSolver(sys, Config{
		Layout:  grid.Layout{Px: 1, Py: 1, Pz: 16},
		Machine: machine.CoriHaswell(),
	}); err == nil {
		t.Fatal("Pz beyond tree depth accepted")
	}
}

func TestValidateConfigAlgorithmRules(t *testing.T) {
	sys := testSystem(t)
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"gpu-multi Py=2 rejected", Config{
			Layout: grid.Layout{Px: 2, Py: 2, Pz: 2}, Algorithm: trsv.GPUMulti,
			Machine: machine.PerlmutterGPU(),
		}, false},
		{"gpu-multi Py=1 accepted", Config{
			Layout: grid.Layout{Px: 2, Py: 1, Pz: 2}, Algorithm: trsv.GPUMulti,
			Machine: machine.PerlmutterGPU(),
		}, true},
		{"gpu-single Px=2 rejected", Config{
			Layout: grid.Layout{Px: 2, Py: 1, Pz: 2}, Algorithm: trsv.GPUSingle,
			Machine: machine.PerlmutterGPU(),
		}, false},
		{"gpu-single on CPU-only model rejected", Config{
			Layout: grid.Layout{Px: 1, Py: 1, Pz: 4}, Algorithm: trsv.GPUSingle,
			Machine: machine.CoriHaswell(),
		}, false},
		{"gpu-multi on CPU-only model rejected", Config{
			Layout: grid.Layout{Px: 2, Py: 1, Pz: 2}, Algorithm: trsv.GPUMulti,
			Machine: machine.CrusherCPU(),
		}, false},
		{"cpu algorithm on GPU model accepted", Config{
			Layout: grid.Layout{Px: 2, Py: 2, Pz: 2}, Algorithm: trsv.Proposed3D,
			Machine: machine.PerlmutterGPU(),
		}, true},
		{"unknown algorithm rejected", Config{
			Layout: grid.Layout{Px: 1, Py: 1, Pz: 1}, Algorithm: trsv.Algorithm(99),
			Machine: machine.CoriHaswell(),
		}, false},
	}
	for _, tc := range cases {
		err := ValidateConfig(sys, tc.cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
		// NewSolver must agree with the standalone validator.
		if _, err := NewSolver(sys, tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: NewSolver disagrees with ValidateConfig (err=%v)", tc.name, err)
		}
	}
}

func TestGPUSolveThroughCore(t *testing.T) {
	sys := testSystem(t)
	s, err := NewSolver(sys, Config{
		Layout:    grid.Layout{Px: 1, Py: 1, Pz: 8},
		Algorithm: trsv.GPUSingle,
		Machine:   machine.PerlmutterGPU(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	b := sparse.NewPanel(sys.A.N, 1)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	x, _, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Residual(x, b); r > 1e-7 {
		t.Fatalf("gpu residual %g", r)
	}
}

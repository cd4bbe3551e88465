package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sptrsv/internal/ctree"
	"sptrsv/internal/fault"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

func traceTestSolver(t *testing.T) (*Solver, *sparse.Panel) {
	t.Helper()
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
	rng := rand.New(rand.NewSource(3))
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return s, b
}

// TestSolveWithTraceDeterminism pins the msgID-safety contract the serving
// layer's per-request arming relies on: arming a trace on one solve leaves
// the DES virtual clock bit-identical, populates Report.Raw.Trace for that
// solve only, and leaves the shared Solver untraced for the next caller.
func TestSolveWithTraceDeterminism(t *testing.T) {
	s, b := traceTestSolver(t)
	_, plain, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Raw.Trace != nil {
		t.Fatal("untraced solve recorded a trace")
	}
	_, traced, err := s.SolveWith(b, SolveSpec{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Raw.Trace == nil {
		t.Fatal("SolveWith{Trace: true} recorded no trace")
	}
	if !traced.Raw.Trace.Complete() {
		t.Fatalf("default cap dropped events: %v", traced.Raw.Trace.Dropped)
	}
	if traced.Time != plain.Time {
		t.Fatalf("tracing perturbed the virtual clock: %v != %v", traced.Time, plain.Time)
	}
	_, after, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if after.Raw.Trace != nil {
		t.Fatal("per-request arming leaked into the shared solver")
	}
	if after.Time != plain.Time {
		t.Fatalf("solve no longer deterministic after traced call: %v != %v", after.Time, plain.Time)
	}
}

// TestSolveWithTraceCap pins that the per-call cap reaches the ring: a tiny
// cap drops events but still returns a usable (truncated) trace.
func TestSolveWithTraceCap(t *testing.T) {
	s, b := traceTestSolver(t)
	_, rep, err := s.SolveWith(b, SolveSpec{Trace: true, TraceCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Raw.Trace
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	if tr.Complete() {
		t.Fatal("cap 4 dropped nothing — cap not plumbed through")
	}
	for rank, evs := range tr.Ranks {
		if len(evs) > 4 {
			t.Fatalf("rank %d retained %d events, cap 4", rank, len(evs))
		}
	}
}

// TestSolveBatchWithMixedSpecs drives the serving coalescer's exact shape:
// one flush mixing a plain panel, a traced panel, and a poisoned panel.
// Tracing and faults must stay with their own panel.
func TestSolveBatchWithMixedSpecs(t *testing.T) {
	s, b := traceTestSolver(t)
	crash := &fault.Plan{Crash: map[int]float64{0: 0}}
	bs := []*sparse.Panel{b, b, b}
	specs := []SolveSpec{{}, {Trace: true}, {Faults: crash}}
	xs, reps, err := s.SolveBatchWith(bs, specs)
	var be *BatchError
	if !errors.As(err, &be) || be.Failed() != 1 {
		t.Fatalf("want exactly the poisoned panel to fail, got %v", err)
	}
	if be.Errs[0] != nil || be.Errs[1] != nil || be.Errs[2] == nil {
		t.Fatalf("fault leaked across panels: %v", be.Errs)
	}
	if xs[0] == nil || xs[1] == nil {
		t.Fatal("healthy panels returned no solution")
	}
	if reps[0].Raw.Trace != nil {
		t.Fatal("plain panel gained a trace")
	}
	if reps[1].Raw.Trace == nil {
		t.Fatal("traced panel has no trace")
	}
	if reps[1].Time != reps[0].Time {
		t.Fatalf("traced panel clock diverged: %v != %v", reps[1].Time, reps[0].Time)
	}
}

// TestSolveWithZeroSpecAllocNeutral pins the acceptance criterion that a
// zero SolveSpec adds nothing to the solve hot path. Structurally: the
// zero spec runs on the configured backend itself, not a copy. By count:
// one call's allocations vary upward from a floor — a recycled solveState
// may have to grow a map, or the buffer pool may have lost its entries to
// GC — so equal averages over a few calls are a coin toss. Instead single
// calls of Solve and SolveWith are sampled alternately and each path's
// floor (its minimum) is compared, within a tolerance equal to how far the
// plain path's floor moves between the two halves of its own samples.
func TestSolveWithZeroSpecAllocNeutral(t *testing.T) {
	s, b := traceTestSolver(t)
	back, err := s.specBackend(SolveSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if back != s.cfg.Backend {
		t.Fatalf("zero spec runs on %#v, want the configured backend %#v", back, s.cfg.Backend)
	}
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector (see raceEnabled)")
	}

	// Warm the buffer pool and metric children so steady state is measured.
	if _, _, err := s.Solve(b); err != nil {
		t.Fatal(err)
	}
	solve := func() {
		if _, _, err := s.Solve(b); err != nil {
			t.Fatal(err)
		}
	}
	solveWith := func() {
		if _, _, err := s.SolveWith(b, SolveSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	const n = 30
	plain := make([]float64, n)
	spec := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			plain[i] = testing.AllocsPerRun(1, solve)
			spec[i] = testing.AllocsPerRun(1, solveWith)
		} else {
			spec[i] = testing.AllocsPerRun(1, solveWith)
			plain[i] = testing.AllocsPerRun(1, solve)
		}
	}
	tol := math.Abs(minOf(plain[:n/2]) - minOf(plain[n/2:]))
	if d := minOf(spec) - minOf(plain); math.Abs(d) > tol {
		t.Fatalf("zero-spec SolveWith allocates %.0f/op at its floor vs Solve's %.0f/op (tolerance %.0f)\nSolve:     %v\nSolveWith: %v",
			minOf(spec), minOf(plain), tol, plain, spec)
	}
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// BenchmarkSolveSpecOff is the allocs/op pin in benchmark form: run with
// -benchmem to read the trace-off serving hot path's allocation count.
func BenchmarkSolveSpecOff(bench *testing.B) {
	sys, err := Factorize(gen.S2D9pt(24, 24, 31), FactorOptions{TreeDepth: 3, MaxSupernode: 8})
	if err != nil {
		bench.Fatal(err)
	}
	s, err := NewSolver(sys, Config{
		Layout:    grid.Layout{Px: 2, Py: 2, Pz: 2},
		Algorithm: trsv.Proposed3D,
		Trees:     ctree.Binary,
		Machine:   machine.CoriHaswell(),
	})
	if err != nil {
		bench.Fatal(err)
	}
	b := sparse.NewPanel(sys.A.N, 1)
	for i := range b.Data {
		b.Data[i] = 1
	}
	bench.ReportAllocs()
	bench.ResetTimer()
	for i := 0; i < bench.N; i++ {
		if _, _, err := s.SolveWith(b, SolveSpec{}); err != nil {
			bench.Fatal(err)
		}
	}
}

package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sptrsv/internal/ctree"
	"sptrsv/internal/fault"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

func robustSolver(t *testing.T, sys *System) *Solver {
	t.Helper()
	s, err := NewSolver(sys, Config{
		Layout:    grid.Layout{Px: 2, Py: 2, Pz: 2},
		Algorithm: trsv.Proposed3D,
		Trees:     ctree.Binary,
		Machine:   machine.CoriHaswell(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveRejectsNonFiniteRHS(t *testing.T) {
	sys := testSystem(t)
	s := robustSolver(t, sys)
	b := sparse.NewPanel(sys.A.N, 2)
	b.Set(17, 1, math.Inf(1))
	_, _, err := s.Solve(b)
	var ne *fault.NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("expected NumericalError, got %v", err)
	}
	if ne.Stage != "rhs" || ne.Row != 17 || ne.Col != 1 || !math.IsInf(ne.Value, 1) {
		t.Fatalf("wrong attribution: %+v", ne)
	}
	if ne.Sn != -1 || ne.Rank != -1 {
		t.Fatalf("rhs-stage error should not name a supernode/rank: %+v", ne)
	}
	if !fault.IsFault(err) {
		t.Fatal("NumericalError not classified as fault")
	}
}

// TestSolverReusableAfterNumericalFault pins satellite (c) at the core
// layer: failing solves draw buffers from the pool and must return them
// unpoisoned.
func TestSolverReusableAfterNumericalFault(t *testing.T) {
	sys := testSystem(t)
	s := robustSolver(t, sys)
	rng := rand.New(rand.NewSource(41))
	good := sparse.NewPanel(sys.A.N, 2)
	for i := range good.Data {
		good.Data[i] = rng.NormFloat64()
	}
	// Reference solution before any fault.
	x0, _, err := s.Solve(good)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		bad := good.Clone()
		bad.Data[trial*7] = math.NaN()
		if _, _, err := s.Solve(bad); err == nil {
			t.Fatalf("trial %d: NaN RHS accepted", trial)
		}
		x, _, err := s.Solve(good)
		if err != nil {
			t.Fatalf("trial %d: clean solve after fault: %v", trial, err)
		}
		if r := s.Residual(x, good); r > 1e-7 {
			t.Fatalf("trial %d: residual %g after fault", trial, r)
		}
		for i := range x.Data {
			if x.Data[i] != x0.Data[i] {
				t.Fatalf("trial %d: solution differs bitwise after fault — pooled buffer leaked state", trial)
			}
		}
	}
}

func TestSolveBatchErrorMapping(t *testing.T) {
	sys := testSystem(t)
	s := robustSolver(t, sys)
	rng := rand.New(rand.NewSource(43))
	bs := make([]*sparse.Panel, 3)
	for i := range bs {
		bs[i] = sparse.NewPanel(sys.A.N, 1)
		for j := range bs[i].Data {
			bs[i].Data[j] = rng.NormFloat64()
		}
	}
	bs[1].Data[5] = math.NaN()

	xs, reps, err := s.SolveBatch(bs)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("expected *BatchError, got %v", err)
	}
	if len(be.Errs) != 3 || be.Failed() != 1 {
		t.Fatalf("BatchError shape: %d errs, %d failed", len(be.Errs), be.Failed())
	}
	if be.Errs[0] != nil || be.Errs[2] != nil {
		t.Fatalf("healthy panels marked failed: %v", be.Errs)
	}
	if be.Errs[1] == nil {
		t.Fatal("poisoned panel not marked failed")
	}
	// errors.As must reach the underlying typed fault through the batch.
	var ne *fault.NumericalError
	if !errors.As(err, &ne) || ne.Stage != "rhs" {
		t.Fatalf("BatchError does not unwrap to the panel fault: %v", err)
	}
	if !fault.IsFault(err) {
		t.Fatal("BatchError with fault panels not classified as fault")
	}
	// Per-panel isolation: siblings of the failed panel completed.
	for _, i := range []int{0, 2} {
		if xs[i] == nil || reps[i] == nil {
			t.Fatalf("panel %d lost to sibling failure", i)
		}
		if r := s.Residual(xs[i], bs[i]); r > 1e-7 {
			t.Fatalf("panel %d residual %g", i, r)
		}
	}
	if xs[1] != nil || reps[1] != nil {
		t.Fatal("failed panel produced a solution/report")
	}
}

// TestSolveBatchFaultedPartialFailure pins the coalescer's failure
// contract: in one SolveBatch, a panel carrying an injected fault plan
// (a rank crash from internal/fault) fails with its typed error while the
// sibling panels solve normally and bit-identically to a clean solver.
func TestSolveBatchFaultedPartialFailure(t *testing.T) {
	sys := testSystem(t)
	s := robustSolver(t, sys)
	rng := rand.New(rand.NewSource(47))
	bs := make([]*sparse.Panel, 4)
	for i := range bs {
		bs[i] = sparse.NewPanel(sys.A.N, 1)
		for j := range bs[i].Data {
			bs[i].Data[j] = rng.NormFloat64()
		}
	}
	// Reference solutions from plain solves before any injection.
	refs := make([]*sparse.Panel, len(bs))
	for i, b := range bs {
		x, _, err := s.Solve(b)
		if err != nil {
			t.Fatalf("reference solve %d: %v", i, err)
		}
		refs[i] = x
	}

	specs := make([]SolveSpec, len(bs))
	specs[2].Faults = &fault.Plan{Crash: map[int]float64{1: 0}}
	xs, reps, err := s.SolveBatchWith(bs, specs)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("expected *BatchError, got %v", err)
	}
	if be.Failed() != 1 || be.Errs[2] == nil {
		t.Fatalf("exactly panel 2 should fail: %v", be.Errs)
	}
	var ce *fault.CrashError
	if !errors.As(be.Errs[2], &ce) || ce.Rank != 1 {
		t.Fatalf("panel 2 should carry the injected CrashError, got %v", be.Errs[2])
	}
	if xs[2] != nil || reps[2] != nil {
		t.Fatal("crashed panel produced a solution/report")
	}
	for _, i := range []int{0, 1, 3} {
		if be.Errs[i] != nil || xs[i] == nil {
			t.Fatalf("healthy panel %d lost to injected sibling fault: %v", i, be.Errs[i])
		}
		for j := range xs[i].Data {
			if xs[i].Data[j] != refs[i].Data[j] {
				t.Fatalf("panel %d solution differs bitwise from the clean solve", i)
			}
		}
	}
	// Length-mismatched specs are a usage error, not a partial run.
	if _, _, err := s.SolveBatchWith(bs, specs[:2]); err == nil {
		t.Fatal("mismatched specs length accepted")
	}
	// And the solver stays healthy for the next plain batch.
	xs2, _, err := s.SolveBatch(bs)
	if err != nil {
		t.Fatalf("clean batch after faulted batch: %v", err)
	}
	for i := range xs2 {
		if r := s.Residual(xs2[i], bs[i]); r > 1e-7 {
			t.Fatalf("panel %d residual %g after faulted batch", i, r)
		}
	}
}

// TestSolveFaultPlanThroughConfig checks the configured backend's fault
// plumbing: a crash plan in the simulation backend's options surfaces as a
// CrashError from Solve.
func TestSolveFaultPlanThroughConfig(t *testing.T) {
	sys := testSystem(t)
	s, err := NewSolver(sys, Config{
		Layout:    grid.Layout{Px: 2, Py: 2, Pz: 2},
		Algorithm: trsv.Proposed3D,
		Trees:     ctree.Binary,
		Machine:   machine.CoriHaswell(),
		Backend:   trsv.SimBackend{Opts: runtime.Options{Faults: &fault.Plan{Crash: map[int]float64{3: 0}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := sparse.NewPanel(sys.A.N, 1)
	for i := range b.Data {
		b.Data[i] = 1
	}
	_, _, err = s.Solve(b)
	var ce *fault.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CrashError through the backend's fault plan, got %v", err)
	}
	if ce.Rank != 3 {
		t.Fatalf("crash blames rank %d, want 3", ce.Rank)
	}
}

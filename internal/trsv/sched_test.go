package trsv

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"sptrsv/internal/ctree"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sched"
	"sptrsv/internal/sparse"
)

// Level-scheduled execution: the pool's agreement with the DES, its trace
// annotations, concurrent use of one schedule, and the
// schedule itself. The bit-exact bar against frozen results lives in
// golden_test.go.

// schedCase is one (matrix, layout, algorithm) point of the property tests.
type schedCase struct {
	name  string
	algo  Algorithm
	l     grid.Layout
	kind  ctree.Kind
	model *machine.Model
	nrhs  int
}

func schedMatrices(t *testing.T) map[string]*pipeline {
	t.Helper()
	return map[string]*pipeline{
		"s2d":    buildPipeline(t, gen.S2D9pt(20, 20, 31), 3, 8),
		"rand":   buildPipeline(t, gen.RandomDD(rand.New(rand.NewSource(200)), 240, 0.06), 2, 10),
		"s2d-xl": buildPipeline(t, gen.S2D9pt(26, 26, 32), 2, 12),
	}
}

func schedCases() []schedCase {
	cori := machine.CoriHaswell()
	perl := machine.PerlmutterGPU()
	return []schedCase{
		{"proposed", Proposed3D, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary, cori, 2},
		{"proposed-2d", Proposed3D, grid.Layout{Px: 2, Py: 3, Pz: 1}, ctree.Flat, cori, 1},
		{"naive-ar", Proposed3DNaiveAR, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary, cori, 1},
		{"baseline", Baseline3D, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Flat, cori, 2},
		{"gpu-single", GPUSingle, grid.Layout{Px: 1, Py: 1, Pz: 4}, ctree.Binary, perl, 3},
		{"gpu-multi", GPUMulti, grid.Layout{Px: 2, Py: 1, Pz: 2}, ctree.Binary, perl, 1},
	}
}

// solveMode runs one solve with the given options and returns the solution
// and run result.
func solveMode(t *testing.T, pl *pipeline, tc schedCase, b *sparse.Panel, back Backend, opts SolveOpts) (*sparse.Panel, *runtime.Result) {
	t.Helper()
	p := pl.plan(t, tc.l, tc.kind)
	x := sparse.NewPanel(b.Rows, b.Cols)
	res, err := Solve(p, tc.model, tc.algo, back, b, x, opts)
	if err != nil {
		t.Fatalf("%s %+v: %v", tc.name, opts, err)
	}
	return x, res
}

// TestSchedPoolBitExact checks that the real-goroutine backend computes
// the DES solution bit for bit: both run each rank's tasks one at a time
// in FIFO order through the same kernels, so only message delivery order
// differs. Bitwise comparison is only well-defined where floating-point
// accumulation order cannot depend on that order — on the pool it is
// wall-clock-dependent, and sums of three or more terms then differ in the
// last bits — so the bitwise legs run on layouts whose sums have at most
// two terms: one rank (pure local cascade) and one rank per grid on two
// grids, where the proposed algorithm's grid 1 solves with b(K) zeroed for
// the nodes it does not own and the baseline merges partial sums pairwise.
// The multi-rank legs are held to the serial-reference tolerance.
func TestSchedPoolBitExact(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(18, 18, 33), 2, 8)
	back := PoolBackend{Pool: runtime.Pool{Timeout: 30 * time.Second}}
	rng := rand.New(rand.NewSource(301))
	b := randPanel(rng, pl.m.N, 2)

	cori := machine.CoriHaswell()
	for _, tc := range []schedCase{
		{"proposed-1x1x1", Proposed3D, grid.Layout{Px: 1, Py: 1, Pz: 1}, ctree.Binary, cori, 2},
		{"proposed-1x1x2", Proposed3D, grid.Layout{Px: 1, Py: 1, Pz: 2}, ctree.Binary, cori, 2},
		{"baseline-1x1x2", Baseline3D, grid.Layout{Px: 1, Py: 1, Pz: 2}, ctree.Flat, cori, 2},
	} {
		xd, _ := solveMode(t, pl, tc, b, SimBackend{}, SolveOpts{})
		for trial := 0; trial < 3; trial++ {
			xp, _ := solveMode(t, pl, tc, b, back, SolveOpts{})
			for i, v := range xd.Data {
				if xp.Data[i] != v {
					t.Fatalf("%s trial %d: pool solution differs from the DES solution at %d", tc.name, trial, i)
				}
			}
		}
	}

	for _, tc := range schedCases() {
		if tc.algo == GPUSingle || tc.algo == GPUMulti {
			continue // simulation-only
		}
		bb := randPanel(rng, pl.m.N, tc.nrhs)
		ww := pl.m.Solve(bb)
		x, _ := solveMode(t, pl, tc, bb, back, SolveOpts{})
		if d := x.MaxAbsDiff(ww); d > 1e-8 {
			t.Fatalf("%s: pool diff %g", tc.name, d)
		}
	}
}

// TestSchedSweepSpansTraced checks the analyzer contract: a traced run
// carries level-sweep annotations (one span per sweep, task count in the
// tag) and its critical path stays consistent with them.
func TestSchedSweepSpansTraced(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 34), 3, 8)
	tc := schedCase{"proposed", Proposed3D, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary, machine.CoriHaswell(), 1}
	rng := rand.New(rand.NewSource(302))
	b := randPanel(rng, pl.m.N, tc.nrhs)
	back := SimBackend{Opts: runtime.Options{Trace: true}}
	_, rs := solveMode(t, pl, tc, b, back, SolveOpts{})
	ss, err := rs.LevelSweeps()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Sweeps == 0 || ss.Tasks == 0 {
		t.Fatalf("scheduled run recorded no level sweeps: %+v", ss)
	}
	if ss.MaxTasks < 1 || ss.MeanTasks() <= 0 {
		t.Fatalf("degenerate sweep stats: %+v", ss)
	}
	cp, err := rs.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	// Length ≤ Makespan up to summation rounding (the chain re-sums spans
	// the clock accumulated in a different order).
	if cp.Length <= 0 || cp.Length > cp.Makespan*(1+1e-12) {
		t.Fatalf("critical path inconsistent under sweeps: length %g makespan %g", cp.Length, cp.Makespan)
	}
}

// TestSchedConcurrentSolves runs many scheduled solves of one plan
// concurrently on both backends (a -race stress of scripts/check.sh): the
// plan and schedule are shared immutable state and per-solve states come
// from the plan's pool, so no two solves may race.
func TestSchedConcurrentSolves(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 35), 2, 8)
	model := machine.CoriHaswell()
	p := pl.plan(t, grid.Layout{Px: 2, Py: 2, Pz: 2}, ctree.Binary)
	rng := rand.New(rand.NewSource(303))
	b := randPanel(rng, pl.m.N, 2)
	want := pl.m.Solve(b)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	diffs := make([]float64, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			back := Backend(SimBackend{})
			if i%2 == 1 {
				back = PoolBackend{Pool: runtime.Pool{Timeout: 30 * time.Second}}
			}
			x := sparse.NewPanel(b.Rows, b.Cols)
			_, err := Solve(p, model, Proposed3D, back, b, x, SolveOpts{})
			errs[i] = err
			if err == nil {
				diffs[i] = x.MaxAbsDiff(want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent solve %d: %v", i, err)
		}
		if diffs[i] > 1e-8 {
			t.Fatalf("concurrent solve %d: diff %g", i, diffs[i])
		}
	}
}

// TestSchedStatsSane sanity-checks the derived schedule itself on a few
// plans: every grid supernode has a slot, slots ascend with supernode
// index, level counts cover the diagonal tasks, and the cached schedule is
// returned for repeated calls.
func TestSchedStatsSane(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 36), 3, 8)
	p := pl.plan(t, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary)
	s1, err := sched.Of(p)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sched.Of(p)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("schedule not cached on the plan")
	}
	st := s1.Stats()
	if st.Tasks == 0 || st.MaxLevels == 0 {
		t.Fatalf("degenerate schedule stats: %+v", st)
	}
	for z, g := range s1.Grids {
		prev := -1
		for _, k := range g.Sns {
			s := int(g.SlotOf[k])
			if s != prev+1 {
				t.Fatalf("grid %d: slot of sn %d is %d, want %d", z, k, s, prev+1)
			}
			prev = s
		}
	}
}

// TestSchedRejectsBadOpts checks the options validation surface: an
// elastic solve needs a backend that can arm its deadline ticks, so a
// backend that is not Configurable is an error, not a strict run.
func TestSchedRejectsBadOpts(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(10, 10, 37), 1, 8)
	p := pl.plan(t, grid.Layout{Px: 1, Py: 1, Pz: 1}, ctree.Binary)
	b := sparse.NewPanel(pl.m.N, 1)
	x := sparse.NewPanel(pl.m.N, 1)
	custom := struct{ Backend }{SimBackend{}}
	opts := SolveOpts{Staleness: 4}
	if _, err := Solve(p, machine.CoriHaswell(), Proposed3D, custom, b, x, opts); err == nil {
		t.Fatalf("options %+v accepted on a backend without runtime options", opts)
	}
}

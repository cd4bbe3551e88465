package trsv

import (
	"math/rand"
	"testing"
	"time"

	"sptrsv/internal/ctree"
	"sptrsv/internal/dist"
	"sptrsv/internal/factor"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/order"
	"sptrsv/internal/runtime"
	"sptrsv/internal/snode"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// pipeline turns a matrix into a ready-to-solve plan plus the serial
// reference solver, mirroring what internal/core does for users.
type pipeline struct {
	aPerm *sparse.CSR
	tree  *order.Tree
	m     *snode.Matrix
}

func buildPipeline(t *testing.T, a *sparse.CSR, depth, maxSn int) *pipeline {
	t.Helper()
	tr := order.NestedDissection(a, depth)
	ap := a.Permute(tr.Perm)
	s, err := symbolic.Analyze(ap, symbolic.Options{MaxSupernode: maxSn, Boundaries: grid.Boundaries(tr)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := factor.Factorize(ap, s)
	if err != nil {
		t.Fatal(err)
	}
	m, err := snode.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline{aPerm: ap, tree: tr, m: m}
}

func (pl *pipeline) plan(t *testing.T, l grid.Layout, kind ctree.Kind) *dist.Plan {
	t.Helper()
	p, err := dist.New(pl.m, pl.tree, l, kind)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randPanel(rng *rand.Rand, rows, cols int) *sparse.Panel {
	p := sparse.NewPanel(rows, cols)
	for i := range p.Data {
		p.Data[i] = rng.NormFloat64()
	}
	return p
}

// solveNew runs one default-options solve into a fresh output panel.
func solveNew(p *dist.Plan, model *machine.Model, algo Algorithm, back Backend, b *sparse.Panel) (*sparse.Panel, *runtime.Result, error) {
	x := sparse.NewPanel(b.Rows, b.Cols)
	res, err := Solve(p, model, algo, back, b, x, SolveOpts{})
	return x, res, err
}

// checkSolve runs one algorithm on one layout and compares against the
// serial supernodal reference.
func checkSolve(t *testing.T, pl *pipeline, l grid.Layout, kind ctree.Kind, algo Algorithm, back Backend, model *machine.Model, nrhs int, seed int64) *runtime.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := randPanel(rng, pl.m.N, nrhs)
	want := pl.m.Solve(b)
	p := pl.plan(t, l, kind)
	x, res, err := solveNew(p, model, algo, back, b)
	if err != nil {
		t.Fatalf("%v %+v: %v", algo, l, err)
	}
	if d := x.MaxAbsDiff(want); d > 1e-8 {
		t.Fatalf("%v %+v kind=%v nrhs=%d: max diff %g", algo, l, kind, nrhs, d)
	}
	if r := sparse.ResidualInf(pl.aPerm, x, b); r > 1e-7 {
		t.Fatalf("%v %+v: residual %g", algo, l, r)
	}
	return res
}

var cpuLayouts = []grid.Layout{
	{Px: 1, Py: 1, Pz: 1},
	{Px: 2, Py: 1, Pz: 1},
	{Px: 2, Py: 3, Pz: 1},
	{Px: 3, Py: 2, Pz: 2},
	{Px: 1, Py: 1, Pz: 4},
	{Px: 2, Py: 2, Pz: 4},
	{Px: 4, Py: 1, Pz: 2},
	{Px: 2, Py: 2, Pz: 8},
}

func TestProposed3DAllLayouts(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 11), 3, 8)
	model := machine.CoriHaswell()
	for _, l := range cpuLayouts {
		for _, kind := range []ctree.Kind{ctree.Flat, ctree.Binary} {
			for _, nrhs := range []int{1, 3} {
				checkSolve(t, pl, l, kind, Proposed3D, SimBackend{}, model, nrhs, 42)
			}
		}
	}
}

func TestBaseline3DAllLayouts(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 12), 3, 8)
	model := machine.CoriHaswell()
	for _, l := range cpuLayouts {
		for _, nrhs := range []int{1, 2} {
			checkSolve(t, pl, l, ctree.Flat, Baseline3D, SimBackend{}, model, nrhs, 43)
		}
	}
}

func TestAlgorithmsOnSuiteMatrices(t *testing.T) {
	model := machine.CoriHaswell()
	for _, m := range gen.Suite(gen.Small) {
		if m.A.N > 1200 {
			continue
		}
		pl := buildPipeline(t, m.A, 2, 16)
		l := grid.Layout{Px: 2, Py: 2, Pz: 4}
		checkSolve(t, pl, l, ctree.Binary, Proposed3D, SimBackend{}, model, 1, 44)
		checkSolve(t, pl, l, ctree.Flat, Baseline3D, SimBackend{}, model, 1, 45)
	}
}

func TestProposed3DPoolBackend(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 13), 2, 8)
	model := machine.CoriHaswell()
	back := PoolBackend{Pool: runtime.Pool{Timeout: 30 * time.Second}}
	for _, l := range []grid.Layout{{Px: 2, Py: 2, Pz: 1}, {Px: 2, Py: 2, Pz: 4}, {Px: 1, Py: 3, Pz: 2}} {
		checkSolve(t, pl, l, ctree.Binary, Proposed3D, back, model, 2, 46)
	}
}

func TestBaseline3DPoolBackend(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 14), 2, 8)
	model := machine.CoriHaswell()
	back := PoolBackend{Pool: runtime.Pool{Timeout: 30 * time.Second}}
	for _, l := range []grid.Layout{{Px: 2, Py: 2, Pz: 1}, {Px: 2, Py: 2, Pz: 4}} {
		checkSolve(t, pl, l, ctree.Flat, Baseline3D, back, model, 1, 47)
	}
}

func TestGPUSingleAllPz(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 15), 3, 8)
	model := machine.PerlmutterGPU()
	for _, pz := range []int{1, 2, 4, 8} {
		for _, nrhs := range []int{1, 5} {
			checkSolve(t, pl, grid.Layout{Px: 1, Py: 1, Pz: pz}, ctree.Binary, GPUSingle, SimBackend{}, model, nrhs, 48)
		}
	}
}

func TestGPUMultiLayouts(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 16), 3, 8)
	model := machine.PerlmutterGPU()
	for _, l := range []grid.Layout{
		{Px: 2, Py: 1, Pz: 1},
		{Px: 4, Py: 1, Pz: 1},
		{Px: 2, Py: 1, Pz: 4},
		{Px: 4, Py: 1, Pz: 8},
	} {
		checkSolve(t, pl, l, ctree.Binary, GPUMulti, SimBackend{}, model, 1, 49)
	}
}

func TestGPURejectsBadConfigs(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(10, 10, 17), 1, 8)
	model := machine.PerlmutterGPU()
	b := sparse.NewPanel(pl.m.N, 1)
	if _, _, err := solveNew(pl.plan(t, grid.Layout{Px: 2, Py: 2, Pz: 1}, ctree.Binary), model, GPUSingle, SimBackend{}, b); err == nil {
		t.Fatal("gpu-single with Px*Py>1 accepted")
	}
	if _, _, err := solveNew(pl.plan(t, grid.Layout{Px: 2, Py: 2, Pz: 1}, ctree.Binary), model, GPUMulti, SimBackend{}, b); err == nil {
		t.Fatal("gpu-multi with Py>1 accepted")
	}
	if _, _, err := solveNew(pl.plan(t, grid.Layout{Px: 1, Py: 1, Pz: 1}, ctree.Binary), machine.CoriHaswell(), GPUSingle, SimBackend{}, b); err == nil {
		t.Fatal("gpu algorithm on CPU-only model accepted")
	}
}

func TestDeterministicVirtualTimes(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 18), 2, 8)
	model := machine.CoriHaswell()
	l := grid.Layout{Px: 2, Py: 2, Pz: 4}
	r1 := checkSolve(t, pl, l, ctree.Binary, Proposed3D, SimBackend{}, model, 1, 50)
	r2 := checkSolve(t, pl, l, ctree.Binary, Proposed3D, SimBackend{}, model, 1, 50)
	for i := range r1.Clocks {
		if r1.Clocks[i] != r2.Clocks[i] {
			t.Fatalf("non-deterministic DES clocks at rank %d", i)
		}
	}
}

func TestMarksPresent(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 19), 2, 8)
	model := machine.CoriHaswell()
	res := checkSolve(t, pl, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary, Proposed3D, SimBackend{}, model, 1, 51)
	for r, tm := range res.Timers {
		for _, mark := range []string{MarkLDone, MarkZDone, MarkUDone} {
			if _, ok := tm.Marks[mark]; !ok {
				t.Fatalf("rank %d missing mark %s", r, mark)
			}
		}
		if !(tm.Marks[MarkLDone] <= tm.Marks[MarkZDone] && tm.Marks[MarkZDone] <= tm.Marks[MarkUDone]) {
			t.Fatalf("rank %d marks out of order", r)
		}
	}
}

func TestZCommOnlyWithPzGreaterOne(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 20), 2, 8)
	model := machine.CoriHaswell()
	res1 := checkSolve(t, pl, grid.Layout{Px: 2, Py: 2, Pz: 1}, ctree.Binary, Proposed3D, SimBackend{}, model, 1, 52)
	if res1.MeanCat(runtime.CatZ) != 0 {
		t.Fatal("Pz=1 run charged Z-comm time")
	}
	res4 := checkSolve(t, pl, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary, Proposed3D, SimBackend{}, model, 1, 53)
	if res4.MeanCat(runtime.CatZ) <= 0 {
		t.Fatal("Pz=4 run has no Z-comm time")
	}
}

func TestBinaryTreesReduceLatencyAtWideGrids(t *testing.T) {
	// With a wide process grid, the binary trees must beat flat trees on
	// simulated time — the claim of §3.3. (At tiny scales flat can win;
	// the paper's gains are at hundreds-of-ranks scale, checked by Fig. 4.)
	pl := buildPipeline(t, gen.S2D9pt(48, 48, 21), 1, 8)
	model := machine.CoriHaswell()
	l := grid.Layout{Px: 8, Py: 8, Pz: 1}
	rng := rand.New(rand.NewSource(54))
	b := randPanel(rng, pl.m.N, 1)
	solve := func(kind ctree.Kind) float64 {
		x, res, err := solveNew(pl.plan(t, l, kind), model, Proposed3D, SimBackend{}, b)
		if err != nil {
			t.Fatal(err)
		}
		if r := sparse.ResidualInf(pl.aPerm, x, b); r > 1e-7 {
			t.Fatalf("residual %g", r)
		}
		return res.MaxClock()
	}
	flat := solve(ctree.Flat)
	binary := solve(ctree.Binary)
	if binary >= flat {
		t.Fatalf("binary trees (%g s) not faster than flat (%g s) on 8x8 grid", binary, flat)
	}
}

func TestRandomMatricesRandomLayouts(t *testing.T) {
	model := machine.CoriHaswell()
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := 80 + rng.Intn(200)
		a := gen.RandomDD(rng, n, 0.06)
		pl := buildPipeline(t, a, 2, 1+rng.Intn(12))
		l := grid.Layout{Px: 1 + rng.Intn(3), Py: 1 + rng.Intn(3), Pz: 1 << rng.Intn(3)}
		kind := ctree.Kind(rng.Intn(2))
		checkSolve(t, pl, l, kind, Proposed3D, SimBackend{}, model, 1+rng.Intn(3), int64(trial))
		checkSolve(t, pl, l, ctree.Flat, Baseline3D, SimBackend{}, model, 1, int64(trial))
	}
}

func TestNaiveAllreduceCorrectness(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 22), 3, 8)
	model := machine.CoriHaswell()
	for _, l := range []grid.Layout{
		{Px: 1, Py: 1, Pz: 4},
		{Px: 2, Py: 2, Pz: 4},
		{Px: 2, Py: 2, Pz: 8},
		{Px: 2, Py: 2, Pz: 1},
	} {
		checkSolve(t, pl, l, ctree.Binary, Proposed3DNaiveAR, SimBackend{}, model, 2, 60)
	}
}

func TestNaiveAllreduceCostsMoreMessages(t *testing.T) {
	// The ablation claim of §3.2: the per-node strawman sends more Z
	// messages than the packed sparse allreduce.
	pl := buildPipeline(t, gen.S2D9pt(24, 24, 23), 3, 8)
	model := machine.CoriHaswell()
	l := grid.Layout{Px: 2, Py: 2, Pz: 8}
	rng := rand.New(rand.NewSource(61))
	b := randPanel(rng, pl.m.N, 1)
	_, sparseRes, err := solveNew(pl.plan(t, l, ctree.Binary), model, Proposed3D, SimBackend{}, b)
	if err != nil {
		t.Fatal(err)
	}
	_, naiveRes, err := solveNew(pl.plan(t, l, ctree.Binary), model, Proposed3DNaiveAR, SimBackend{}, b)
	if err != nil {
		t.Fatal(err)
	}
	sparseZ := sparseRes.CatMsgs(runtime.CatZ)
	naiveZ := naiveRes.CatMsgs(runtime.CatZ)
	if naiveZ <= sparseZ {
		t.Fatalf("naive allreduce sent %d Z messages, sparse %d — expected more", naiveZ, sparseZ)
	}
}

func TestMessageCountsBaselineVsProposed(t *testing.T) {
	// The baseline's per-node-group trees must produce more intra-grid
	// messages than the proposed single-tree scheme (Fig. 1 remark).
	pl := buildPipeline(t, gen.S2D9pt(24, 24, 24), 3, 8)
	model := machine.CoriHaswell()
	l := grid.Layout{Px: 2, Py: 2, Pz: 8}
	rng := rand.New(rand.NewSource(62))
	b := randPanel(rng, pl.m.N, 1)
	_, newRes, err := solveNew(pl.plan(t, l, ctree.Flat), model, Proposed3D, SimBackend{}, b)
	if err != nil {
		t.Fatal(err)
	}
	_, baseRes, err := solveNew(pl.plan(t, l, ctree.Flat), model, Baseline3D, SimBackend{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.CatMsgs(runtime.CatXY) <= newRes.CatMsgs(runtime.CatXY) {
		t.Fatalf("baseline XY messages %d not above proposed %d",
			baseRes.CatMsgs(runtime.CatXY), newRes.CatMsgs(runtime.CatXY))
	}
}

// jitterNet delivers messages with deterministic pseudo-random latencies,
// scrambling arrival order to stress the handlers' phase-deferral logic:
// any correct message-driven algorithm must tolerate arbitrary reordering.
type jitterNet struct{ salt uint64 }

func (j jitterNet) Cost(src, dst, bytes int) (float64, float64, float64) {
	h := j.salt*0x9e3779b97f4a7c15 + uint64(src)*0x517cc1b727220a95 + uint64(dst)*0x2545f4914f6cdd1d + uint64(bytes)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	lat := 1e-6 + float64(h%1000)*1e-6 // 1µs … 1ms
	return 0.5e-6, lat, 0.5e-6
}

func TestAlgorithmsUnderMessageReordering(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(18, 18, 25), 3, 8)
	rng := rand.New(rand.NewSource(63))
	b := randPanel(rng, pl.m.N, 2)
	want := pl.m.Solve(b)
	for _, algo := range []Algorithm{Proposed3D, Baseline3D, Proposed3DNaiveAR} {
		for _, l := range []grid.Layout{{Px: 2, Py: 2, Pz: 4}, {Px: 3, Py: 2, Pz: 8}, {Px: 1, Py: 1, Pz: 8}} {
			for salt := uint64(0); salt < 5; salt++ {
				p := pl.plan(t, l, ctree.Binary)
				if algo == Baseline3D {
					p = pl.plan(t, l, ctree.Flat)
				}
				x := sparse.NewPanel(b.Rows, b.Cols)
				factory, err := handlerFactory(algo, p, machine.CoriHaswell(), b, x, SolveOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := runtime.NewEngine(l.Size(), jitterNet{salt: salt}).Run(factory); err != nil {
					t.Fatalf("%v %+v salt=%d: %v", algo, l, salt, err)
				}
				if d := x.MaxAbsDiff(want); d > 1e-8 {
					t.Fatalf("%v %+v salt=%d: diff %g", algo, l, salt, d)
				}
			}
		}
	}
}

func TestGPUUnderMessageReordering(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 26), 3, 8)
	rng := rand.New(rand.NewSource(64))
	b := randPanel(rng, pl.m.N, 1)
	want := pl.m.Solve(b)
	model := machine.PerlmutterGPU()
	for salt := uint64(0); salt < 4; salt++ {
		for _, tc := range []struct {
			l    grid.Layout
			algo Algorithm
		}{
			{grid.Layout{Px: 1, Py: 1, Pz: 8}, GPUSingle},
			{grid.Layout{Px: 4, Py: 1, Pz: 4}, GPUMulti},
		} {
			p := pl.plan(t, tc.l, ctree.Binary)
			x := sparse.NewPanel(b.Rows, b.Cols)
			factory, err := handlerFactory(tc.algo, p, model, b, x, SolveOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runtime.NewEngine(tc.l.Size(), jitterNet{salt: salt}).Run(factory); err != nil {
				t.Fatalf("%v salt=%d: %v", tc.algo, salt, err)
			}
			if d := x.MaxAbsDiff(want); d > 1e-8 {
				t.Fatalf("%v salt=%d: diff %g", tc.algo, salt, d)
			}
		}
	}
}

func TestDeepReplicationPz64(t *testing.T) {
	// The full tree depth the figure harness uses: Pz=64 means 6 levels of
	// replication and 63 distinct replication sets in the allreduce.
	pl := buildPipeline(t, gen.S2D9pt(40, 40, 27), 6, 8)
	model := machine.CoriHaswell()
	checkSolve(t, pl, grid.Layout{Px: 1, Py: 1, Pz: 64}, ctree.Binary, Proposed3D, SimBackend{}, model, 1, 65)
	checkSolve(t, pl, grid.Layout{Px: 2, Py: 1, Pz: 64}, ctree.Auto, Proposed3D, SimBackend{}, model, 1, 66)
	checkSolve(t, pl, grid.Layout{Px: 1, Py: 1, Pz: 64}, ctree.Flat, Baseline3D, SimBackend{}, model, 1, 67)
}

func TestManyRightHandSides(t *testing.T) {
	// The paper's 50-RHS protocol, through every algorithm family.
	pl := buildPipeline(t, gen.S2D9pt(14, 14, 28), 2, 8)
	cori := machine.CoriHaswell()
	perl := machine.PerlmutterGPU()
	checkSolve(t, pl, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary, Proposed3D, SimBackend{}, cori, 50, 68)
	checkSolve(t, pl, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Flat, Baseline3D, SimBackend{}, cori, 50, 69)
	checkSolve(t, pl, grid.Layout{Px: 1, Py: 1, Pz: 4}, ctree.Binary, GPUSingle, SimBackend{}, perl, 50, 70)
	checkSolve(t, pl, grid.Layout{Px: 2, Py: 1, Pz: 2}, ctree.Binary, GPUMulti, SimBackend{}, perl, 50, 71)
}

func TestGPUMultiRHSFasterPerRHS(t *testing.T) {
	// GEMM efficiency: 50 RHS must cost far less than 50× one RHS on the
	// GPU model (the paper's Figs. 9–10 motivation).
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 29), 2, 16)
	model := machine.PerlmutterGPU()
	l := grid.Layout{Px: 1, Py: 1, Pz: 4}
	rng := rand.New(rand.NewSource(72))
	t1 := func(nrhs int) float64 {
		b := randPanel(rng, pl.m.N, nrhs)
		_, res, err := solveNew(pl.plan(t, l, ctree.Binary), model, GPUSingle, SimBackend{}, b)
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxClock()
	}
	one := t1(1)
	fifty := t1(50)
	if fifty >= 25*one {
		t.Fatalf("50 RHS cost %g vs 1 RHS %g: no GEMM batching benefit", fifty, one)
	}
}

func TestDisconnectedMatrixEmptySeparators(t *testing.T) {
	// A block-diagonal matrix: nested dissection finds empty separators,
	// so some elimination-tree nodes own zero supernodes. Every algorithm
	// must handle empty replicated nodes (no solves, empty allreduce
	// bundles, empty baseline stages).
	b := sparse.NewBuilder(160)
	rng := rand.New(rand.NewSource(73))
	for blk := 0; blk < 4; blk++ {
		base := blk * 40
		for i := 0; i < 40; i++ {
			b.Add(base+i, base+i, 50)
			if i+1 < 40 {
				v := rng.NormFloat64()
				b.Add(base+i, base+i+1, v)
				b.Add(base+i+1, base+i, v)
			}
		}
	}
	a := b.ToCSR()
	pl := buildPipeline(t, a, 3, 8)
	model := machine.CoriHaswell()
	for _, algo := range []Algorithm{Proposed3D, Baseline3D, Proposed3DNaiveAR} {
		for _, l := range []grid.Layout{{Px: 2, Py: 2, Pz: 4}, {Px: 1, Py: 1, Pz: 8}} {
			kind := ctree.Binary
			if algo == Baseline3D {
				kind = ctree.Flat
			}
			checkSolve(t, pl, l, kind, algo, SimBackend{}, model, 2, 74)
		}
	}
	checkSolve(t, pl, grid.Layout{Px: 1, Py: 1, Pz: 4}, ctree.Binary, GPUSingle, SimBackend{}, machine.PerlmutterGPU(), 1, 75)
}

func TestSingleSupernodeMatrix(t *testing.T) {
	// A tiny dense matrix collapses to very few supernodes; all layouts
	// must still terminate correctly even when most ranks own nothing.
	b := sparse.NewBuilder(6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				b.Add(i, j, 10)
			} else {
				b.Add(i, j, 0.5)
			}
		}
	}
	pl := buildPipeline(t, b.ToCSR(), 0, 48)
	model := machine.CoriHaswell()
	for _, l := range []grid.Layout{{Px: 1, Py: 1, Pz: 1}, {Px: 4, Py: 4, Pz: 1}} {
		checkSolve(t, pl, l, ctree.Binary, Proposed3D, SimBackend{}, model, 1, 76)
		checkSolve(t, pl, l, ctree.Flat, Baseline3D, SimBackend{}, model, 1, 77)
	}
}

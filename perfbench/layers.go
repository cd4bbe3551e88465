package main

import (
	"fmt"
	goruntime "runtime"
	rtmetrics "runtime/metrics"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/dist"
	"sptrsv/internal/factor"
	"sptrsv/internal/grid"
	"sptrsv/internal/metrics"
	"sptrsv/internal/order"
	"sptrsv/internal/sched"
	"sptrsv/internal/snode"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
	"sptrsv/internal/trsv"
)

// treeDepth matches core.Factorize's default (and the figures harness), so
// the staged replay builds exactly what Factorize builds.
const treeDepth = 6

// stageMS times each set-up stage's public function in core.Factorize's
// order, then the distribution plan and level schedule NewSolver builds.
// The returned map holds milliseconds keyed by per-layer metric name, plus
// the exact counts factor.fill_nnz, sched.tasks and sched.levels.
func stageMS(a *sparse.CSR, layout grid.Layout, trees ctree.Kind, algo trsv.Algorithm, spans *spanLog, op int64) (map[string]float64, error) {
	out := map[string]float64{}
	timed := func(name string, f func() error) error {
		s := spans.begin(name, op, -1)
		t0 := time.Now()
		err := f()
		out[name] = msSince(t0)
		spans.end(s)
		return err
	}
	var (
		tree *order.Tree
		ap   *sparse.CSR
		st   *symbolic.Structure
		f    *factor.Factors
		sn   *snode.Matrix
		plan *dist.Plan
	)
	err := timed("order.nd_ms", func() error {
		tree = order.NestedDissection(a, treeDepth)
		ap = a.Permute(tree.Perm)
		return nil
	})
	if err == nil {
		err = timed("symbolic.analyze_ms", func() (err error) {
			st, err = symbolic.Analyze(ap, symbolic.Options{Boundaries: grid.Boundaries(tree)})
			return err
		})
	}
	if err == nil {
		err = timed("factor.numeric_ms", func() (err error) {
			f, err = factor.Factorize(ap, st)
			return err
		})
	}
	if err == nil {
		err = timed("snode.build_ms", func() (err error) {
			sn, err = snode.Build(f)
			return err
		})
	}
	if err == nil {
		err = timed("dist.plan_ms", func() (err error) {
			if plan, err = dist.New(sn, tree, layout, trees); err == nil && algo == trsv.Baseline3D {
				err = plan.BuildBaseline()
			}
			return err
		})
	}
	var stats sched.Stats
	if err == nil {
		err = timed("sched.schedule_ms", func() error {
			s, err := sched.Of(plan)
			if err == nil {
				stats = s.Stats()
			}
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("staged set-up: %w", err)
	}
	out["factor.fill_nnz"] = float64(st.FillNNZ())
	out["sched.tasks"] = float64(stats.Tasks)
	out["sched.levels"] = float64(stats.MaxLevels)
	return out, nil
}

// stageMedians runs stageMS reps times and keeps each stage's median.
func stageMedians(reps int, a *sparse.CSR, layout grid.Layout, trees ctree.Kind, algo trsv.Algorithm, spans *spanLog, op int64) (map[string]float64, error) {
	samples := map[string][]float64{}
	for i := 0; i < reps; i++ {
		m, err := stageMS(a, layout, trees, algo, spans, op)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range samples {
		out[k] = median(v)
	}
	return out, nil
}

// gemmShape is one GemmAdd call of a solve: A is m×k, B is k×nrhs.
type gemmShape struct {
	a *sparse.Panel
	b *sparse.Panel
	c *sparse.Panel
}

// gemmPlan lists the GemmAdd calls one solve of the supernodal system makes
// with nrhs columns: per supernode the two diagonal inverse products and
// one product per off-diagonal L and U block. Each block is counted once,
// as the serial reference applies it; replicated 3D layouts repeat some of
// this work on several grids, which trsv.block_ops_per_solve shows.
func gemmPlan(sn *snode.Matrix, nrhs int, seed int64) []gemmShape {
	var shapes []gemmShape
	add := func(a *sparse.Panel) {
		shapes = append(shapes, gemmShape{
			a: a,
			b: seededPanel(a.Cols, nrhs, seed+int64(len(shapes))),
			c: sparse.NewPanel(a.Rows, nrhs),
		})
	}
	for k := 0; k < sn.SnCount; k++ {
		add(sn.LDiagInv[k])
		add(sn.UDiagInv[k])
		for _, blk := range sn.LBlocks[k] {
			add(blk.Val)
		}
		for _, blk := range sn.UBlocks[k] {
			add(blk.Val)
		}
	}
	return shapes
}

// gemmCost is the computed (not measured) work of one solve's GEMMs:
// flops, and bytes moved reading A and B and reading and writing C.
func gemmCost(shapes []gemmShape) (flops, bytes float64) {
	for _, s := range shapes {
		m, k, n := s.a.Rows, s.a.Cols, s.b.Cols
		flops += sparse.GemmFlops(m, k, n)
		bytes += 8 * float64(m*k+k*n+2*m*n)
	}
	return flops, bytes
}

// gemmReplayNS replays the shapes single-threaded reps times and returns
// the median nanoseconds of one pass — one solve's kernel time on an
// uncontended core.
func gemmReplayNS(shapes []gemmShape, reps int, spans *spanLog, op int64) float64 {
	var ns []float64
	for r := 0; r < reps; r++ {
		s := spans.begin("sparse.gemm_replay", op, -1)
		t0 := time.Now()
		for _, g := range shapes {
			sparse.GemmAdd(g.a, g.b, g.c)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		spans.end(s)
	}
	return median(ns)
}

// kernelLayer fills the sparse.* metrics for one solve of sn with nrhs
// columns, spread over ranks participating ranks.
func kernelLayer(m map[string]float64, sn *snode.Matrix, nrhs, ranks, reps int, seed int64, spans *spanLog, op int64) {
	shapes := gemmPlan(sn, nrhs, seed)
	flops, bytes := gemmCost(shapes)
	ns := gemmReplayNS(shapes, reps, spans, op)
	m["sparse.gemm_flops_per_solve"] = flops
	m["sparse.gemm_bytes_per_solve"] = bytes
	m["sparse.gemm_ns_per_solve"] = ns
	m["sparse.gemm_gflops"] = ratio(flops, ns)
	m["sparse.gemm_rank_ms"] = ns / 1e6 / float64(ranks)
}

// blockOps reads the numeric kernel invocations (sptrsv_trsv_phase_ops)
// of the process-wide metrics registry, summed over algorithms and phases.
func blockOps() float64 {
	ops := metrics.Default().Counter("sptrsv_trsv_phase_ops", "", "algorithm", "phase")
	n := 0.0
	for _, a := range []trsv.Algorithm{trsv.Proposed3D, trsv.Baseline3D, trsv.GPUSingle, trsv.GPUMulti} {
		for _, p := range []string{"diag_y", "diag_x", "l_block", "u_block"} {
			n += ops.With(a.String(), p).Value()
		}
	}
	return n
}

// allocWindow measures heap allocations and GC CPU share between start and
// stop.
type allocWindow struct {
	ms0     goruntime.MemStats
	samples []rtmetrics.Sample
	gc0     float64
	total0  float64
}

func startAllocWindow() *allocWindow {
	w := &allocWindow{samples: []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
	goruntime.ReadMemStats(&w.ms0)
	rtmetrics.Read(w.samples)
	w.gc0, w.total0 = w.samples[0].Value.Float64(), w.samples[1].Value.Float64()
	return w
}

// stop returns allocations and bytes per operation over ops operations,
// and the GC share of CPU time in the window.
func (w *allocWindow) stop(ops int) (allocs, bytes, gcFrac float64) {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	rtmetrics.Read(w.samples)
	gc := w.samples[0].Value.Float64() - w.gc0
	total := w.samples[1].Value.Float64() - w.total0
	n := float64(ops)
	return float64(ms.Mallocs-w.ms0.Mallocs) / n, float64(ms.TotalAlloc-w.ms0.TotalAlloc) / n, ratio(gc, total)
}

// retainedHeapMB returns the live heap after two full collections (the
// second empties the sync.Pool victim caches).
func retainedHeapMB() float64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// setupSystem factorizes a and builds a solver: the set-up a library
// caller pays, timed as setup_s.
func setupSystem(a *sparse.CSR, cfg core.Config, spans *spanLog, op int64) (*core.System, *core.Solver, error) {
	s := spans.begin("core.Factorize", op, -1)
	sys, err := core.Factorize(a, core.FactorOptions{TreeDepth: treeDepth})
	spans.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = spans.begin("core.NewSolver", op, -1)
	solver, err := core.NewSolver(sys, cfg)
	spans.end(s)
	if err != nil {
		return nil, nil, err
	}
	return sys, solver, nil
}

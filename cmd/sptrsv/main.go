// Command sptrsv runs a single distributed triangular solve on a generated
// matrix and prints the timing report — the quickest way to explore one
// configuration.
//
// Usage:
//
//	sptrsv -matrix s2d9pt -scale small -px 2 -py 2 -pz 4 \
//	       -algo proposed -trees auto -machine cori-haswell -nrhs 1
//
// Algorithms: proposed, baseline, gpu-single (requires px=py=1 and a GPU
// machine model), gpu-multi (requires py=1). Backends: sim (default,
// modeled time) or pool (real goroutines, wall-clock time).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

func main() {
	matrix := flag.String("matrix", "s2d9pt", "matrix analog: s2d9pt, nlpkkt, ldoor, dielfilter, gaas, s1mat")
	mtxPath := flag.String("mtx", "", "solve a Matrix Market file instead of a generated analog (must be symmetric-pattern, no-pivoting-safe)")
	scale := flag.String("scale", "small", "matrix scale: small, medium, large")
	px := flag.Int("px", 2, "process rows per 2D grid")
	py := flag.Int("py", 2, "process columns per 2D grid")
	pz := flag.Int("pz", 2, "number of replicated 2D grids (power of two)")
	algoName := flag.String("algo", "proposed", "algorithm: proposed, baseline, gpu-single, gpu-multi")
	treeName := flag.String("trees", "auto", "communication trees: flat, binary, auto")
	machineName := flag.String("machine", "cori-haswell", "machine model (see internal/machine)")
	backendName := flag.String("backend", "sim", "backend: sim (modeled time) or pool (wall clock)")
	modeName := flag.String("mode", "auto", "solve mode: auto, strict (block on every dependency), elastic (bounded staleness + iterative refinement)")
	staleness := flag.Int("staleness", 16, "elastic mode's staleness bound S, in dependency levels")
	refineTol := flag.Float64("refine-tol", 0, "elastic mode's acceptance threshold on ‖b−Ax‖∞ (0 = default 1e-8)")
	refineMax := flag.Int("refine-max", 0, "cap on elastic iterative-refinement passes (0 = default 48)")
	nrhs := flag.Int("nrhs", 1, "number of right-hand sides")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the solve to this path (see also cmd/trace)")
	traceCap := flag.Int("trace-cap", 0, "per-rank trace event capacity when -trace is set (0 = default 65536); overflow drops oldest events")
	flag.Parse()

	fail := func(err error) { cliutil.Fail("sptrsv", err) }

	var a *sparse.CSR
	if *mtxPath != "" {
		a = cliutil.LoadMTX("sptrsv", *mtxPath)
		fmt.Printf("matrix %s: n=%d, nnz=%d\n", *mtxPath, a.N, a.NNZ())
	} else {
		m := gen.Named(*matrix, gen.ParseScale(*scale))
		a = m.A
		fmt.Printf("matrix %s (analog of %s): n=%d, nnz=%d\n", m.Name, m.PaperName, a.N, a.NNZ())
	}

	sys, err := core.Factorize(a, core.FactorOptions{})
	if err != nil {
		fail(err)
	}
	fmt.Printf("factors: nnz(LU)=%d, %d supernodes\n", sys.NNZFactors(), sys.SN.SnCount)

	algo, err := cliutil.ParseAlgorithm(*algoName)
	if err != nil {
		fail(err)
	}
	trees, err := cliutil.ParseTrees(*treeName)
	if err != nil {
		fail(err)
	}
	mode, err := cliutil.ElasticFlags(*modeName, *staleness, *refineTol, *refineMax)
	if err != nil {
		fail(err)
	}
	tracing := *tracePath != ""
	ropts := runtime.Options{Trace: tracing, TraceCap: *traceCap}
	var backend trsv.Backend = trsv.SimBackend{Opts: ropts}
	if *backendName == "pool" {
		backend = trsv.PoolBackend{Pool: runtime.Pool{Opts: ropts}}
	}

	cfg := core.Config{
		Layout:    grid.Layout{Px: *px, Py: *py, Pz: *pz},
		Algorithm: algo,
		Trees:     trees,
		Machine:   machine.ByName(*machineName),
		Backend:   backend,
		Mode:      mode,
		Staleness: *staleness,
		RefineTol: *refineTol,
		RefineMax: *refineMax,
	}
	if err := core.ValidateConfig(sys, cfg); err != nil {
		fail(fmt.Errorf("configuration %dx%dx%d %s on %s is not runnable: %w\n"+
			"hint: let the autotuner pick a valid configuration for this matrix and machine:\n"+
			"  go run ./cmd/tune -matrix %s -scale %s -machine %s -p %d",
			*px, *py, *pz, *algoName, *machineName, err,
			*matrix, *scale, *machineName, (*px)*(*py)*(*pz)))
	}
	solver, err := core.NewSolver(sys, cfg)
	if err != nil {
		fail(err)
	}

	b := sparse.NewPanel(a.N, *nrhs)
	for i := range b.Data {
		b.Data[i] = 1
	}
	x, rep, err := solver.Solve(b)
	if err != nil {
		fail(err)
	}
	fmt.Printf("layout %dx%dx%d, %s, %s trees, %s model, nrhs=%d\n",
		*px, *py, *pz, *algoName, *treeName, *machineName, *nrhs)
	fmt.Printf("solve time: %.6g s (%s)\n", rep.Time, *backendName)
	fmt.Printf("breakdown (mean/rank): FP %.3g s, XY-comm %.3g s, Z-comm %.3g s\n",
		rep.MeanFP, rep.MeanXY, rep.MeanZ)
	if mode.Resolve() == trsv.ModeElastic {
		fmt.Printf("elastic: S=%d, %d stale supernodes, %d refinement passes, verified residual %.3g\n",
			*staleness, rep.StaleSupernodes, rep.RefinePasses, rep.Residual)
	}
	fmt.Printf("residual ‖Ax−b‖∞ = %.3g\n", solver.Residual(x, b))

	if tracing {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := rep.Raw.WriteTraceNamed(f, trsv.TagName); err != nil {
			// A truncated-but-valid trace is worth keeping; warn and go on.
			var dropped *runtime.DroppedEventsError
			if !errors.As(err, &dropped) {
				f.Close()
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "sptrsv: warning: %d trace events dropped, raise -trace-cap\n", dropped.Dropped)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote trace to %s (%d events) — open in chrome://tracing or ui.perfetto.dev\n",
			*tracePath, rep.Raw.Trace.Events())
	}
}

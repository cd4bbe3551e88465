// Command sptrsv runs a single distributed triangular solve on a generated
// matrix (or a Matrix Market file) and prints the timing report — the
// quickest way to explore one configuration.
//
// Usage:
//
//	sptrsv -matrix s2d9pt -scale small -px 2 -py 2 -pz 4 \
//	       -algo proposed -trees auto -machine cori-haswell -nrhs 1
//
// Flags: the whole shared surface of internal/cliutil, plus -trace.
// gpu-single requires px=py=1 and a GPU machine model, gpu-multi py=1.
package main

import (
	"flag"
	"fmt"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

var (
	fs        = flag.NewFlagSet("sptrsv", flag.ContinueOnError)
	cf        = cliutil.NewConfigFlags().Bind(fs, cliutil.Solve)
	tracePath = fs.String("trace", "", "write a Chrome trace_event JSON of the solve to this path (see also cmd/trace)")
)

func main() { cliutil.Main(fs, run) }

func run() error {
	cf.Trace = *tracePath != ""
	cfg, a, err := cf.Load()
	if err != nil {
		return err
	}
	sys, err := core.Factorize(a, core.FactorOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("factors: nnz(LU)=%d, %d supernodes\n", sys.NNZFactors(), sys.SN.SnCount)

	if err := core.ValidateConfig(sys, cfg); err != nil {
		return fmt.Errorf("configuration %dx%dx%d %s on %s is not runnable: %w\n"+
			"hint: let the autotuner pick a valid configuration for this matrix and machine:\n"+
			"  go run ./cmd/tune -matrix %s -scale %s -machine %s -p %d",
			cf.Px, cf.Py, cf.Pz, cf.Algo, cf.Machine, err,
			cf.Matrix, cf.Scale, cf.Machine, cf.Px*cf.Py*cf.Pz)
	}
	solver, err := core.NewSolver(sys, cfg)
	if err != nil {
		return err
	}

	b := sparse.NewPanel(a.N, cf.NRHS)
	for i := range b.Data {
		b.Data[i] = 1
	}
	x, rep, err := solver.Solve(b)
	if err != nil {
		return err
	}
	fmt.Printf("layout %dx%dx%d, %s, %s trees, %s model, nrhs=%d\n",
		cf.Px, cf.Py, cf.Pz, cf.Algo, cf.Trees, cf.Machine, cf.NRHS)
	fmt.Printf("solve time: %.6g s (%s)\n", rep.Time, cf.Backend)
	fmt.Printf("breakdown (mean/rank): FP %.3g s, XY-comm %.3g s, Z-comm %.3g s\n",
		rep.MeanFP, rep.MeanXY, rep.MeanZ)
	if cfg.Mode.Resolve() == trsv.ModeElastic {
		fmt.Printf("elastic: S=%d, %d stale supernodes, %d refinement passes, verified residual %.3g\n",
			cf.Staleness, rep.StaleSupernodes, rep.RefinePasses, rep.Residual)
	}
	fmt.Printf("residual ‖Ax−b‖∞ = %.3g\n", solver.Residual(x, b))
	if *tracePath == "" {
		return nil
	}
	return cliutil.WriteTrace("sptrsv", *tracePath, rep.Raw)
}

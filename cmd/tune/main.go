// Command tune runs the autotuner for one matrix × machine × rank budget
// and prints the chosen configuration next to the naive default, with
// their predicted (discrete-event) makespans.
//
// Usage:
//
//	tune -matrix nlpkkt -scale small -machine cori-haswell -p 64
//	tune -mtx path/to/matrix.mtx -machine perlmutter-gpu -p 16 -cache .tunecache
//
// With -cache DIR the tuned choice is persisted: a second run with the
// same matrix fingerprint, machine, rank budget, and nrhs class is served
// from the cache with zero probe solves.
package main

import (
	"flag"
	"fmt"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/gen"
	"sptrsv/internal/machine"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
	"sptrsv/internal/tune"
)

func main() {
	matrix := flag.String("matrix", "s2d9pt", "matrix analog: s2d9pt, nlpkkt, ldoor, dielfilter, gaas, s1mat")
	mtxPath := flag.String("mtx", "", "tune for a Matrix Market file instead of a generated analog")
	scale := flag.String("scale", "small", "matrix scale: small, medium, large")
	machineName := flag.String("machine", "cori-haswell", "machine model (see internal/machine)")
	p := flag.Int("p", 64, "rank budget: total number of ranks the configuration may use")
	nrhs := flag.Int("nrhs", 1, "number of right-hand sides to tune for")
	topk := flag.Int("topk", 0, "candidates probed after the analytic pre-score (0 = default)")
	workers := flag.Int("workers", 0, "concurrent probe solves (0 = default)")
	cacheDir := flag.String("cache", "", "directory of the persistent tuned-config cache (empty = no cache)")
	modeName := flag.String("mode", "auto", "solve mode to stamp on the tuned config: auto, strict, elastic")
	staleness := flag.Int("staleness", 16, "elastic mode's staleness bound S, in dependency levels")
	refineTol := flag.Float64("refine-tol", 0, "elastic mode's acceptance threshold on ‖b−Ax‖∞ (0 = default 1e-8)")
	refineMax := flag.Int("refine-max", 0, "cap on elastic iterative-refinement passes (0 = default 48)")
	verbose := flag.Bool("v", false, "also list every probed candidate")
	flag.Parse()

	fail := func(err error) { cliutil.Fail("tune", err) }

	var a *sparse.CSR
	if *mtxPath != "" {
		a = cliutil.LoadMTX("tune", *mtxPath)
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

	mode, err := cliutil.ElasticFlags(*modeName, *staleness, *refineTol, *refineMax)
	if err != nil {
		fail(err)
	}

	opt := tune.Options{
		NRHS: *nrhs, TopK: *topk, Workers: *workers,
		Mode: mode, Staleness: *staleness, RefineTol: *refineTol, RefineMax: *refineMax,
	}
	if *cacheDir != "" {
		if opt.Cache, err = tune.OpenCache(*cacheDir); err != nil {
			fail(err)
		}
	}
	model := machine.ByName(*machineName)
	res, err := tune.Run(sys, model, *p, opt)
	if err != nil {
		fail(err)
	}

	source := fmt.Sprintf("searched %d candidates, %d probe solves", res.SpaceSize, res.Probes)
	if res.FromCache {
		source = "served from cache, zero probe solves"
	}
	fmt.Printf("tuned for p=%d on %s, nrhs=%d (%s)\n", *p, model.Name, *nrhs, source)
	if mode.Resolve() == trsv.ModeElastic {
		fmt.Printf("solve mode: elastic (S=%d, refine-tol %g, refine-max %d) stamped on both configs\n",
			*staleness, *refineTol, *refineMax)
	}
	fmt.Printf("chosen:  %-12s %dx%dx%d trees=%-6s  predicted makespan %.6g s\n",
		res.Config.Algorithm, res.Config.Layout.Px, res.Config.Layout.Py, res.Config.Layout.Pz,
		res.Config.Trees, res.Makespan)
	fmt.Printf("default: %-12s %dx%dx%d trees=%-6s  predicted makespan %.6g s",
		res.Default.Algorithm, res.Default.Layout.Px, res.Default.Layout.Py, res.Default.Layout.Pz,
		res.Default.Trees, res.DefaultMakespan)
	if res.Makespan > 0 {
		fmt.Printf("  (tuned is %.2fx faster)", res.DefaultMakespan/res.Makespan)
	}
	fmt.Println()
	if *verbose {
		for _, s := range res.Probed {
			fmt.Printf("  probed %-12s %dx%dx%d trees=%-6s  pre-score %.3g s  makespan %.6g s\n",
				s.Config.Algorithm, s.Config.Layout.Px, s.Config.Layout.Py, s.Config.Layout.Pz,
				s.Config.Trees, s.PreScore, s.Makespan)
		}
	}
}

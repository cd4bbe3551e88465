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
// from the cache with zero probe solves. Shared flags (internal/cliutil):
// the matrix source, -machine and -nrhs.
package main

import (
	"flag"
	"fmt"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/tune"
)

var (
	fs       = flag.NewFlagSet("tune", flag.ContinueOnError)
	cf       = cliutil.NewConfigFlags().Bind(fs, cliutil.Matrix|cliutil.Machine|cliutil.NRHS)
	p        = fs.Int("p", 64, "rank budget: total number of ranks the configuration may use")
	topk     = fs.Int("topk", 0, "candidates probed after the analytic pre-score (0 = default)")
	workers  = fs.Int("workers", 0, "concurrent probe solves (0 = default)")
	cacheDir = fs.String("cache", "", "directory of the persistent tuned-config cache (empty = no cache)")
	verbose  = fs.Bool("v", false, "also list every probed candidate")
)

func main() { cliutil.Main(fs, run) }

func run() error {
	cfg, a, err := cf.Load()
	if err != nil {
		return err
	}
	sys, err := core.Factorize(a, core.FactorOptions{})
	if err != nil {
		return err
	}

	opt := tune.Options{NRHS: cf.NRHS, TopK: *topk, Workers: *workers}
	if *cacheDir != "" {
		if opt.Cache, err = tune.OpenCache(*cacheDir); err != nil {
			return err
		}
	}
	res, err := tune.Run(sys, cfg.Machine, *p, opt)
	if err != nil {
		return err
	}

	source := fmt.Sprintf("searched %d candidates, %d probe solves", res.SpaceSize, res.Probes)
	if res.FromCache {
		source = "served from cache, zero probe solves"
	}
	fmt.Printf("tuned for p=%d on %s, nrhs=%d (%s)\n", *p, cfg.Machine.Name, cf.NRHS, source)
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
	return nil
}

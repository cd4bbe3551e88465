// Command figures regenerates the paper's evaluation: Table 1 and the
// analogs of Figs. 4–11, printing aligned text tables (and optionally
// writing per-experiment files under -outdir).
//
// Usage:
//
//	figures [-scale small|medium|large] [-only table1,fig4,...] [-quick] [-outdir results]
//
// The full medium-scale sweep takes tens of minutes (every point is a full
// discrete-event simulation doing the real numeric solve); -quick shrinks
// each sweep to a smoke-test size.
//
// Three extra experiments never run as part of "all":
//
//	figures -only bench   -scale small   # (re)write the BENCH_SPTRSV.json summary
//	figures -only regress -scale small   # compare a fresh run against the baseline
//	figures -only slo     -scale small   # serving SLO report (wall-clock, via internal/server)
//
// regress exits 1 on a fatal regression (latency beyond -latency-tol, any
// message-count increase, bytes beyond -bytes-tol, a vanished record) and 2
// when the -baseline file is missing or unreadable. scripts/bench_regress
// wraps the second form.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sptrsv/internal/bench"
	"sptrsv/internal/cliutil"
	"sptrsv/internal/gen"
)

func main() {
	scale := flag.String("scale", "medium", "matrix scale: small, medium, large")
	only := flag.String("only", "all", "comma-separated experiments: table1,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,ablation,autotune,breakdown,faults,elastic,slo,bench,regress")
	quick := flag.Bool("quick", false, "shrink sweeps to smoke-test size")
	outdir := flag.String("outdir", "", "also write one text file per experiment into this directory")
	baseline := flag.String("baseline", "BENCH_SPTRSV.json", "benchmark summary file: written by -only bench, compared by -only regress")
	latencyTol := flag.Float64("latency-tol", 0.05, "fractional per-record latency slowdown -only regress tolerates")
	bytesTol := flag.Float64("bytes-tol", 0, "fractional per-record byte growth -only regress tolerates (0 = any increase is fatal)")
	modeName := flag.String("mode", "auto", "solve mode for every experiment point: auto, strict, elastic (the elastic sweep sets its own modes)")
	staleness := flag.Int("staleness", 16, "elastic mode's staleness bound S, in dependency levels")
	refineTol := flag.Float64("refine-tol", 0, "elastic mode's acceptance threshold on ‖b−Ax‖∞ (0 = default 1e-8)")
	refineMax := flag.Int("refine-max", 0, "cap on elastic iterative-refinement passes (0 = default 48)")
	verbose := flag.Bool("v", false, "log progress")
	flag.Parse()

	solveMode, err := cliutil.ElasticFlags(*modeName, *staleness, *refineTol, *refineMax)
	if err != nil {
		cliutil.Fail("figures", err)
	}

	want := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		want[strings.TrimSpace(s)] = true
	}
	all := want["all"]
	if all {
		want["ablation"] = true
		want["autotune"] = true
		want["faults"] = true
		want["elastic"] = true
	}

	run := func(name string, f func(cfg bench.Config)) {
		if !all && !want[name] {
			return
		}
		var w io.Writer = os.Stdout
		var file *os.File
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				cliutil.Fail("figures", err)
			}
			var err error
			file, err = os.Create(filepath.Join(*outdir, name+".txt"))
			if err != nil {
				cliutil.Fail("figures", err)
			}
			w = io.MultiWriter(os.Stdout, file)
		}
		cfg := bench.Config{
			Scale:     gen.ParseScale(*scale),
			Quick:     *quick,
			Verbose:   *verbose,
			Out:       w,
			Mode:      solveMode,
			Staleness: *staleness,
			RefineTol: *refineTol,
			RefineMax: *refineMax,
		}
		t0 := time.Now()
		fmt.Printf("== %s (scale=%s quick=%v) ==\n", name, *scale, *quick)
		f(cfg)
		fmt.Printf("== %s done in %v ==\n\n", name, time.Since(t0).Round(time.Millisecond))
		if file != nil {
			file.Close()
		}
	}

	run("table1", func(cfg bench.Config) { bench.Table1(cfg) })
	run("fig4", func(cfg bench.Config) { bench.Fig4(cfg) })
	run("fig5", func(cfg bench.Config) { bench.Breakdown(cfg, "s2d9pt") })
	run("fig6", func(cfg bench.Config) { bench.Breakdown(cfg, "nlpkkt") })
	run("fig7", func(cfg bench.Config) { bench.LoadBalance(cfg, "s2d9pt") })
	run("fig8", func(cfg bench.Config) { bench.LoadBalance(cfg, "nlpkkt") })
	run("fig9", func(cfg bench.Config) { bench.GPUScaling(cfg, "crusher") })
	run("fig10", func(cfg bench.Config) { bench.GPUScaling(cfg, "perlmutter") })
	run("fig11", func(cfg bench.Config) { bench.Fig11(cfg) })
	run("ablation", func(cfg bench.Config) { bench.Ablation(cfg) })
	run("autotune", func(cfg bench.Config) { bench.Autotune(cfg) })
	run("breakdown", func(cfg bench.Config) { bench.BreakdownDetail(cfg) })
	run("faults", func(cfg bench.Config) { bench.FaultSweep(cfg) })
	run("elastic", func(cfg bench.Config) { bench.ElasticSweep(cfg) })

	// slo is explicit-only: it measures wall-clock serving latency through
	// the solve service, so its numbers are machine-dependent and do not
	// belong in the deterministic "all" output set.
	if want["slo"] {
		run("slo", func(cfg bench.Config) { bench.SLO(cfg) })
	}

	// bench and regress are explicit-only: "all" must neither overwrite the
	// committed baseline nor fail on a checkout that does not carry one.
	benchCfg := bench.Config{Scale: gen.ParseScale(*scale), Verbose: *verbose, Out: os.Stdout}
	if want["bench"] {
		t0 := time.Now()
		fmt.Printf("== bench (scale=%s) ==\n", *scale)
		sum := bench.BuildSummary(benchCfg)
		f, err := os.Create(*baseline)
		if err != nil {
			cliutil.Fail("figures", err)
		}
		if err := sum.WriteJSON(f); err != nil {
			f.Close()
			cliutil.Fail("figures", err)
		}
		if err := f.Close(); err != nil {
			cliutil.Fail("figures", err)
		}
		printSummary(sum)
		fmt.Printf("wrote %s (%d records)\n", *baseline, len(sum.Records))
		fmt.Printf("== bench done in %v ==\n\n", time.Since(t0).Round(time.Millisecond))
	}
	if want["regress"] {
		t0 := time.Now()
		fmt.Printf("== regress (scale=%s, baseline=%s) ==\n", *scale, *baseline)
		base, err := bench.ReadSummary(*baseline)
		if err != nil {
			cliutil.FailInput("figures", *baseline, err)
		}
		cur := bench.BuildSummary(benchCfg)
		regs, err := bench.CompareSummaries(cur, base, *latencyTol, *bytesTol)
		if err != nil {
			cliutil.Fail("figures", err)
		}
		fatal := 0
		for _, r := range regs {
			fmt.Println(r)
			if r.Fatal {
				fatal++
			}
		}
		fmt.Printf("%d records compared, %d regression(s), %d fatal\n",
			len(base.Records), len(regs), fatal)
		fmt.Printf("== regress done in %v ==\n\n", time.Since(t0).Round(time.Millisecond))
		if fatal > 0 {
			os.Exit(1)
		}
	}
}

// printSummary echoes the summary records as an aligned table so a human
// can eyeball what just went into the JSON.
func printSummary(sum *bench.Summary) {
	fmt.Printf("%-9s %-10s %-28s %-8s %-15s %12s %9s %10s %9s\n",
		"figure", "matrix", "algorithm", "layout", "machine", "seconds", "messages", "bytes", "allocs/op")
	for _, r := range sum.Records {
		fmt.Printf("%-9s %-10s %-28s %-8s %-15s %12.6g %9d %10d %9.0f\n",
			r.Figure, r.Matrix, r.Algorithm, r.Layout, r.Machine,
			r.Seconds, r.Messages, r.Bytes, r.AllocsPerOp)
	}
}

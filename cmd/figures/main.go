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
// wraps the second form. -scale (default medium here) and the elastic
// group are internal/cliutil's; -staleness S > 0 runs every point
// elastically, except the elastic sweep's, which set their own.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"sptrsv/internal/bench"
	"sptrsv/internal/cliutil"
	"sptrsv/internal/gen"
)

// experiment is one -only name and the harness that prints it.
type experiment struct {
	name string
	run  func(cfg bench.Config)
}

// experiments run in this order; "all" runs every one of them.
var experiments = []experiment{
	{"table1", func(cfg bench.Config) { bench.Table1(cfg) }},
	{"fig4", func(cfg bench.Config) { bench.Fig4(cfg) }},
	{"fig5", func(cfg bench.Config) { bench.Breakdown(cfg, "s2d9pt") }},
	{"fig6", func(cfg bench.Config) { bench.Breakdown(cfg, "nlpkkt") }},
	{"fig7", func(cfg bench.Config) { bench.LoadBalance(cfg, "s2d9pt") }},
	{"fig8", func(cfg bench.Config) { bench.LoadBalance(cfg, "nlpkkt") }},
	{"fig9", func(cfg bench.Config) { bench.GPUScaling(cfg, "crusher") }},
	{"fig10", func(cfg bench.Config) { bench.GPUScaling(cfg, "perlmutter") }},
	{"fig11", func(cfg bench.Config) { bench.Fig11(cfg) }},
	{"ablation", func(cfg bench.Config) { bench.Ablation(cfg) }},
	{"autotune", func(cfg bench.Config) { bench.Autotune(cfg) }},
	{"breakdown", func(cfg bench.Config) { bench.BreakdownDetail(cfg) }},
	{"faults", func(cfg bench.Config) { bench.FaultSweep(cfg) }},
	{"elastic", func(cfg bench.Config) { bench.ElasticSweep(cfg) }},
}

// explicitOnly never run as part of "all": slo measures wall-clock serving
// latency, so its numbers are machine-dependent and do not belong in the
// deterministic output set, and "all" must neither overwrite the committed
// baseline (bench) nor fail on a checkout that does not carry one (regress).
var explicitOnly = []string{"slo", "bench", "regress"}

var (
	fs         = flag.NewFlagSet("figures", flag.ContinueOnError)
	cf         = cliutil.NewConfigFlags()
	only       = fs.String("only", "all", "comma-separated experiments: all, or any of "+strings.Join(names(), ","))
	quick      = fs.Bool("quick", false, "shrink sweeps to smoke-test size")
	outdir     = fs.String("outdir", "", "also write one text file per experiment into this directory")
	baseline   = fs.String("baseline", "BENCH_SPTRSV.json", "benchmark summary file: written by -only bench, compared by -only regress")
	latencyTol = fs.Float64("latency-tol", 0.05, "fractional per-record latency slowdown -only regress tolerates")
	bytesTol   = fs.Float64("bytes-tol", 0, "fractional per-record byte growth -only regress tolerates (0 = any increase is fatal)")
	verbose    = fs.Bool("v", false, "log progress")
)

func main() {
	cf.Scale = "medium"
	cf.Bind(fs, cliutil.Scale|cliutil.Elastic)
	cliutil.Main(fs, run)
}

// names lists every valid -only experiment name.
func names() []string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.name)
	}
	return append(out, explicitOnly...)
}

func run() error {
	cfg, err := cf.Config()
	if err != nil {
		return err
	}
	scale, err := gen.ParseScale(cf.Scale)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		s = strings.TrimSpace(s)
		if s != "all" && !slices.Contains(names(), s) {
			return fmt.Errorf("unknown experiment %q (want all, or any of %s)", s, strings.Join(names(), ", "))
		}
		want[s] = true
	}

	do := func(name string, f func(cfg bench.Config)) error {
		var w io.Writer = os.Stdout
		var file *os.File
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				return err
			}
			var err error
			if file, err = os.Create(filepath.Join(*outdir, name+".txt")); err != nil {
				return err
			}
			defer file.Close()
			w = io.MultiWriter(os.Stdout, file)
		}
		t0 := time.Now()
		fmt.Printf("== %s (scale=%s quick=%v) ==\n", name, cf.Scale, *quick)
		f(bench.Config{
			Scale: scale, Quick: *quick, Verbose: *verbose, Out: w,
			Staleness: cfg.Staleness, RefineTol: cfg.RefineTol, RefineMax: cfg.RefineMax,
		})
		fmt.Printf("== %s done in %v ==\n\n", name, time.Since(t0).Round(time.Millisecond))
		return nil
	}
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			if err := do(e.name, e.run); err != nil {
				return err
			}
		}
	}
	if want["slo"] {
		if err := do("slo", func(cfg bench.Config) { bench.SLO(cfg) }); err != nil {
			return err
		}
	}

	benchCfg := bench.Config{Scale: scale, Verbose: *verbose, Out: os.Stdout}
	if want["bench"] {
		t0 := time.Now()
		fmt.Printf("== bench (scale=%s) ==\n", cf.Scale)
		sum := bench.BuildSummary(benchCfg)
		var buf bytes.Buffer
		if err := sum.WriteJSON(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(*baseline, buf.Bytes(), 0o644); err != nil {
			return err
		}
		printSummary(sum)
		fmt.Printf("wrote %s (%d records)\n", *baseline, len(sum.Records))
		fmt.Printf("== bench done in %v ==\n\n", time.Since(t0).Round(time.Millisecond))
	}
	if want["regress"] {
		t0 := time.Now()
		fmt.Printf("== regress (scale=%s, baseline=%s) ==\n", cf.Scale, *baseline)
		base, err := bench.ReadSummary(*baseline)
		if err != nil {
			return &cliutil.InputError{Path: *baseline, Err: err}
		}
		cur := bench.BuildSummary(benchCfg)
		regs, err := bench.CompareSummaries(cur, base, *latencyTol, *bytesTol)
		if err != nil {
			return err
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
			return fmt.Errorf("%d fatal regression(s) against %s", fatal, *baseline)
		}
	}
	return nil
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

// Command chaos runs a distributed triangular solve repeatedly under an
// injected fault plan and reports each run's outcome — the interactive
// companion to the chaos test harness in internal/fault.
//
// Usage:
//
//	chaos -matrix s2d9pt -scale small -px 2 -py 2 -pz 2 -algo proposed \
//	      -seeds 3 -straggler 0:3 -jitter 1e-5 -drop -1:-1:-1:1 -crash 1:0 \
//	      -backend sim -deadline 500ms
//
// Fault flags (all optional; with none set every run is healthy):
//
//	-straggler rank:factor[,rank:factor...]  slow ranks down by factor
//	-net-delay rank:seconds[,...]            delay every message a rank sends
//	-jitter seconds                          uniform extra latency in [0, s)
//	-drop src:dst:tag:count[,...]            discard messages (-1 wildcards,
//	                                         count 0 = every match)
//	-crash rank:seconds[,...]                kill ranks at a time
//
// The solver flags are internal/cliutil's, without -nrhs and -trace-cap;
// -seeds, -deadline and -timeout are chaos's own. Every run must end in a
// residual-verified solution or a typed fault error (fault.IsFault);
// anything else is a robustness bug and makes chaos exit nonzero.
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/fault"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

var (
	fs       = flag.NewFlagSet("chaos", flag.ContinueOnError)
	cf       = cliutil.NewConfigFlags().Bind(fs, cliutil.Matrix|cliutil.Layout|cliutil.Machine|cliutil.Backend|cliutil.Elastic)
	seeds    = fs.Int("seeds", 3, "number of seeds to sweep (1..n)")
	deadline = fs.Duration("deadline", 500*time.Millisecond, "pool backend stall-watchdog deadline")
	timeout  = fs.Duration("timeout", 30*time.Second, "pool backend coarse run timeout")
	// faults is the plan every seed runs; the fault flags fill it in.
	faults fault.Plan
)

func main() {
	fs.Func("straggler", "rank:factor[,...] — slow ranks down", pairsInto(&faults.Straggler))
	fs.Func("net-delay", "rank:seconds[,...] — delay every message a rank sends (network straggler)", pairsInto(&faults.NetDelay))
	fs.Float64Var(&faults.Jitter, "jitter", 0, "uniform extra message latency in [0, jitter) seconds")
	fs.Func("drop", "src:dst:tag:count[,...] — message drop rules (-1 wildcards)", parseDrops)
	fs.Func("crash", "rank:seconds[,...] — kill ranks at a time", pairsInto(&faults.Crash))
	cliutil.Main(fs, run)
}

func run() error {
	cfg, a, err := cf.Load()
	if err != nil {
		return err
	}
	sys, err := core.Factorize(a, core.FactorOptions{})
	if err != nil {
		return err
	}

	b := sparse.NewPanel(a.N, 1)
	for i := range b.Data {
		b.Data[i] = 1 + float64(i%7)/7
	}

	elastic := cfg.Mode.Resolve() == trsv.ModeElastic
	fmt.Printf("plan: straggler=%v net-delay=%v jitter=%g drops=%v crash=%v, %d seed(s), %s backend, %s mode\n",
		faults.Straggler, faults.NetDelay, faults.Jitter, faults.Drops, faults.Crash, *seeds, cf.Backend, cfg.Mode.Resolve())
	bad := 0
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		plan := faults
		plan.Seed = seed
		if cfg.Backend == nil {
			cfg.Faults = &plan
		} else {
			cfg.Backend = trsv.PoolBackend{Pool: runtime.Pool{
				Timeout: *timeout,
				Opts:    runtime.Options{Faults: &plan, StallTimeout: *deadline},
			}}
		}
		solver, err := core.NewSolver(sys, cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		x, rep, err := solver.Solve(b)
		elapsed := time.Since(start).Round(time.Millisecond)
		switch {
		case err == nil:
			r := solver.Residual(x, b)
			status := "OK"
			if !(r <= 1e-6) {
				status = "BAD-RESIDUAL"
				bad++
			}
			extra := ""
			if elastic {
				extra = fmt.Sprintf(" stale=%d refine=%d", rep.StaleSupernodes, rep.RefinePasses)
			}
			fmt.Printf("seed %d: %s  solve=%.4gms residual=%.3g%s  (%v)\n",
				seed, status, rep.Time*1e3, r, extra, elapsed)
		case fault.IsFault(err):
			fmt.Printf("seed %d: FAULT  %v  (%v)\n", seed, err, elapsed)
		default:
			fmt.Printf("seed %d: UNTYPED-ERROR  %v  (%v)\n", seed, err, elapsed)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) violated the robustness contract", bad)
	}
	return nil
}

// pairsInto returns a flag setter that parses "rank:value[,...]" into *dst.
func pairsInto(dst *map[int]float64) func(string) error {
	return func(spec string) error {
		*dst = map[int]float64{}
		for _, part := range strings.Split(spec, ",") {
			var k int
			var v float64
			if !scan(part, "%d:%g", &k, &v) {
				return fmt.Errorf("entry %q is not rank:value", part)
			}
			(*dst)[k] = v
		}
		return nil
	}
}

// parseDrops parses "src:dst:tag:count[,...]" into the plan's drop rules.
func parseDrops(spec string) error {
	faults.Drops = nil
	for _, part := range strings.Split(spec, ",") {
		var r fault.DropRule
		if !scan(part, "%d:%d:%d:%d", &r.Src, &r.Dst, &r.Tag, &r.Count) {
			return fmt.Errorf("rule %q is not src:dst:tag:count", part)
		}
		faults.Drops = append(faults.Drops, r)
	}
	return nil
}

// scan reports whether format matches all of s.
func scan(s, format string, args ...any) bool {
	var rest string
	n, _ := fmt.Sscanf(s, format+"%s", append(args, &rest)...)
	return n == len(args)
}

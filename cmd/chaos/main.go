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
// Every run must end in one of two ways: a residual-verified solution, or a
// typed fault error (fault.IsFault). Anything else — an untyped error, a
// bad residual — is a robustness bug and makes chaos exit nonzero.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/fault"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

func main() {
	matrix := flag.String("matrix", "s2d9pt", "matrix analog: s2d9pt, nlpkkt, ldoor, dielfilter, gaas, s1mat")
	mtxPath := flag.String("mtx", "", "stress a Matrix Market file instead of a generated analog")
	scale := flag.String("scale", "small", "matrix scale: small, medium, large")
	px := flag.Int("px", 2, "process rows per 2D grid")
	py := flag.Int("py", 2, "process columns per 2D grid")
	pz := flag.Int("pz", 2, "number of replicated 2D grids (power of two)")
	algoName := flag.String("algo", "proposed", "algorithm: proposed, baseline, gpu-single, gpu-multi")
	treeName := flag.String("trees", "binary", "communication trees: flat, binary, auto")
	machineName := flag.String("machine", "cori-haswell", "machine model (see internal/machine)")
	backendName := flag.String("backend", "sim", "backend: sim (virtual time) or pool (goroutines, wall clock)")
	modeName := flag.String("mode", "auto", "solve mode: auto, strict, elastic (bounded staleness + iterative refinement)")
	staleness := flag.Int("staleness", 16, "elastic mode's staleness bound S, in dependency levels")
	refineTol := flag.Float64("refine-tol", 0, "elastic mode's acceptance threshold on ‖b−Ax‖∞ (0 = default 1e-8)")
	refineMax := flag.Int("refine-max", 0, "cap on elastic iterative-refinement passes (0 = default 48)")
	seeds := flag.Int("seeds", 3, "number of seeds to sweep (1..n)")
	stragglerSpec := flag.String("straggler", "", "rank:factor[,...] — slow ranks down")
	netDelaySpec := flag.String("net-delay", "", "rank:seconds[,...] — delay every message a rank sends (network straggler)")
	jitter := flag.Float64("jitter", 0, "uniform extra message latency in [0, jitter) seconds")
	dropSpec := flag.String("drop", "", "src:dst:tag:count[,...] — message drop rules (-1 wildcards)")
	crashSpec := flag.String("crash", "", "rank:seconds[,...] — kill ranks at a time")
	deadline := flag.Duration("deadline", 500*time.Millisecond, "pool backend stall-watchdog deadline")
	timeout := flag.Duration("timeout", 30*time.Second, "pool backend coarse run timeout")
	flag.Parse()

	fail := func(err error) { cliutil.Fail("chaos", err) }

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

	var a *sparse.CSR
	if *mtxPath != "" {
		a = cliutil.LoadMTX("chaos", *mtxPath)
		fmt.Printf("matrix %s: n=%d, nnz=%d\n", *mtxPath, a.N, a.NNZ())
	} else {
		m := gen.Named(*matrix, gen.ParseScale(*scale))
		a = m.A
		fmt.Printf("matrix %s: n=%d, nnz=%d\n", m.Name, a.N, a.NNZ())
	}
	sys, err := core.Factorize(a, core.FactorOptions{})
	if err != nil {
		fail(err)
	}

	straggler, err := parsePairs(*stragglerSpec)
	if err != nil {
		fail(fmt.Errorf("-straggler: %w", err))
	}
	netDelay, err := parsePairs(*netDelaySpec)
	if err != nil {
		fail(fmt.Errorf("-net-delay: %w", err))
	}
	crash, err := parsePairs(*crashSpec)
	if err != nil {
		fail(fmt.Errorf("-crash: %w", err))
	}
	drops, err := parseDrops(*dropSpec)
	if err != nil {
		fail(fmt.Errorf("-drop: %w", err))
	}

	b := sparse.NewPanel(a.N, 1)
	for i := range b.Data {
		b.Data[i] = 1 + float64(i%7)/7
	}

	fmt.Printf("plan: straggler=%v net-delay=%v jitter=%g drops=%v crash=%v, %d seed(s), %s backend, %s mode\n",
		straggler, netDelay, *jitter, drops, crash, *seeds, *backendName, mode.Resolve())
	bad := 0
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		plan := &fault.Plan{
			Seed: seed, Straggler: straggler, NetDelay: netDelay, Jitter: *jitter, Drops: drops, Crash: crash,
		}
		cfg := core.Config{
			Layout:    grid.Layout{Px: *px, Py: *py, Pz: *pz},
			Algorithm: algo,
			Trees:     trees,
			Machine:   machine.ByName(*machineName),
			Mode:      mode,
			Staleness: *staleness,
			RefineTol: *refineTol,
			RefineMax: *refineMax,
		}
		switch *backendName {
		case "sim":
			cfg.Faults = plan
		case "pool":
			cfg.Backend = trsv.PoolBackend{Pool: runtime.Pool{
				Timeout: *timeout,
				Opts:    runtime.Options{Faults: plan, StallTimeout: *deadline},
			}}
		default:
			fail(fmt.Errorf("unknown backend %q", *backendName))
		}
		solver, err := core.NewSolver(sys, cfg)
		if err != nil {
			fail(err)
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
			if mode.Resolve() == trsv.ModeElastic {
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
		fmt.Printf("%d run(s) violated the robustness contract\n", bad)
		os.Exit(1)
	}
}

// parsePairs parses "k:v[,k:v...]" into a map (nil when spec is empty).
func parsePairs(spec string) (map[int]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[int]float64{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.Split(part, ":")
		if len(kv) != 2 {
			return nil, fmt.Errorf("entry %q is not rank:value", part)
		}
		k, err := strconv.Atoi(strings.TrimSpace(kv[0]))
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// parseDrops parses "src:dst:tag:count[,...]" into drop rules.
func parseDrops(spec string) ([]fault.DropRule, error) {
	if spec == "" {
		return nil, nil
	}
	var out []fault.DropRule
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("rule %q is not src:dst:tag:count", part)
		}
		vals := make([]int, 4)
		for i, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out = append(out, fault.DropRule{Src: vals[0], Dst: vals[1], Tag: vals[2], Count: vals[3]})
	}
	return out, nil
}

// Command trace runs one traced solve on the discrete-event backend and
// writes a Chrome trace_event JSON file — open it in chrome://tracing or
// https://ui.perfetto.dev to see every rank's compute, send, recv, and wait
// spans on the virtual timeline. It also prints the trace-derived breakdown,
// the run's critical path (the longest task → message → task dependency
// chain, a lower bound on any schedule of the same graph), and the
// top-slack/top-wait message edges — the direct input for choosing the next
// communication optimization.
//
// Usage:
//
//	trace -matrix s2d9pt -scale small -px 2 -py 2 -pz 4 \
//	      -algo proposed -machine cori-haswell -o trace.json -top 5
package main

import (
	"bufio"
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
	mtxPath := flag.String("mtx", "", "trace a Matrix Market file instead of a generated analog")
	scale := flag.String("scale", "small", "matrix scale: small, medium, large")
	px := flag.Int("px", 2, "process rows per 2D grid")
	py := flag.Int("py", 2, "process columns per 2D grid")
	pz := flag.Int("pz", 2, "number of replicated 2D grids (power of two)")
	algoName := flag.String("algo", "proposed", "algorithm: proposed, baseline, gpu-single, gpu-multi")
	treeName := flag.String("trees", "auto", "communication trees: flat, binary, auto")
	machineName := flag.String("machine", "cori-haswell", "machine model (see internal/machine)")
	modeName := flag.String("mode", "auto", "solve mode: auto, strict, elastic (bounded staleness + iterative refinement)")
	staleness := flag.Int("staleness", 16, "elastic mode's staleness bound S, in dependency levels")
	refineTol := flag.Float64("refine-tol", 0, "elastic mode's acceptance threshold on ‖b−Ax‖∞ (0 = default 1e-8)")
	refineMax := flag.Int("refine-max", 0, "cap on elastic iterative-refinement passes (0 = default 48)")
	nrhs := flag.Int("nrhs", 1, "number of right-hand sides")
	traceCap := flag.Int("trace-cap", 0, "per-rank trace event capacity (0 = default 65536); overflow drops oldest events")
	out := flag.String("o", "trace.json", "output path for the Chrome trace_event JSON")
	top := flag.Int("top", 5, "how many top-slack and top-wait message edges to print")
	flag.Parse()

	fail := func(err error) { cliutil.Fail("trace", err) }

	var a *sparse.CSR
	if *mtxPath != "" {
		a = cliutil.LoadMTX("trace", *mtxPath)
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

	solver, err := core.NewSolver(sys, core.Config{
		Layout:    grid.Layout{Px: *px, Py: *py, Pz: *pz},
		Algorithm: algo,
		Trees:     trees,
		Machine:   machine.ByName(*machineName),
		Trace:     true,
		TraceCap:  *traceCap,
		Mode:      mode,
		Staleness: *staleness,
		RefineTol: *refineTol,
		RefineMax: *refineMax,
	})
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
	fmt.Printf("layout %dx%dx%d, %s, %s model: solve time %.6g s, residual %.3g\n",
		*px, *py, *pz, *algoName, *machineName, rep.Time, solver.Residual(x, b))
	if mode.Resolve() == trsv.ModeElastic {
		fmt.Printf("elastic: S=%d, %d stale supernodes, %d refinement passes, verified residual %.3g\n",
			*staleness, rep.StaleSupernodes, rep.RefinePasses, rep.Residual)
	}

	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	w := bufio.NewWriter(f)
	if err := rep.Raw.WriteTraceNamed(w, trsv.TagName); err != nil {
		// A truncated-but-valid trace is worth keeping; warn and go on.
		var dropped *runtime.DroppedEventsError
		if !errors.As(err, &dropped) {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "trace: warning: %d trace events dropped, raise -trace-cap\n", dropped.Dropped)
	}
	if err := w.Flush(); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s (%d events) — open in chrome://tracing or ui.perfetto.dev\n",
		*out, rep.Raw.Trace.Events())

	bd, err := rep.Raw.TraceBreakdown()
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nbreakdown (mean s over %d participating ranks):\n", bd.Participants)
	for _, k := range []runtime.EventKind{runtime.EvCompute, runtime.EvSend, runtime.EvRecv, runtime.EvElapse} {
		fmt.Printf("  %-8s %.4g\n", k, bd.KindSeconds(k))
	}
	fmt.Printf("  wait-XY  %.4g\n", bd.Seconds[runtime.EvWait][runtime.CatXY])
	fmt.Printf("  wait-Z   %.4g\n", bd.Seconds[runtime.EvWait][runtime.CatZ])

	if ss, err := rep.Raw.LevelSweeps(); err == nil && ss.Sweeps > 0 {
		fmt.Printf("\nlevel sweeps: %d sweeps covering %d tasks, mean %.1f tasks/sweep, widest %d\n",
			ss.Sweeps, ss.Tasks, ss.MeanTasks(), ss.MaxTasks)
	}

	if !rep.Raw.Trace.Complete() {
		// Critical-path and edge analyses need every event; the written
		// (truncated) trace file is still usable in a viewer.
		fmt.Println("\nskipping critical-path and edge analyses: trace is truncated, raise -trace-cap for them")
		return
	}

	cp, err := rep.Raw.CriticalPath()
	if err != nil {
		fail(err)
	}
	fmt.Printf("\ncritical path: %.6g s = %.0f%% of the %.6g s makespan\n",
		cp.Length, 100*cp.Length/cp.Makespan, cp.Makespan)
	fmt.Printf("  %d steps, %d message hops, %.4g s in latency\n",
		len(cp.Steps), cp.MsgHops, cp.LatencySeconds)
	for c := runtime.Category(0); int(c) < runtime.NumCategories; c++ {
		if w := cp.WorkByCat[c]; w > 0 {
			fmt.Printf("  work on chain (%s): %.4g s\n", c, w)
		}
	}

	edges, err := rep.Raw.MessageEdges()
	if err != nil {
		fail(err)
	}
	name := func(tag int) string {
		if n := trsv.TagName(tag); n != "" {
			return n
		}
		return fmt.Sprintf("tag-%d", tag)
	}
	fmt.Printf("\ntop %d edges by least slack (0 = receiver was blocked on it):\n", *top)
	for _, e := range runtime.TopSlack(edges, *top) {
		fmt.Printf("  %-12s %3d -> %3d  %6d B  slack %.4g s\n", name(e.Tag), e.Src, e.Dst, e.Bytes, e.Slack)
	}
	fmt.Printf("top %d edges by receiver wait they ended:\n", *top)
	for _, e := range runtime.TopWait(edges, *top) {
		fmt.Printf("  %-12s %3d -> %3d  %6d B  wait %.4g s\n", name(e.Tag), e.Src, e.Dst, e.Bytes, e.Wait)
	}
}

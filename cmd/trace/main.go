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
//
// Flags: the shared surface of internal/cliutil except -backend, plus -o
// and -top. -staleness S > 0 traces an elastic solve.
package main

import (
	"flag"
	"fmt"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

var (
	fs  = flag.NewFlagSet("trace", flag.ContinueOnError)
	cf  = cliutil.NewConfigFlags().Bind(fs, cliutil.Solve&^cliutil.Backend)
	out = fs.String("o", "trace.json", "output path for the Chrome trace_event JSON")
	top = fs.Int("top", 5, "how many top-slack and top-wait message edges to print")
)

func main() { cliutil.Main(fs, run) }

func run() error {
	cf.Trace = true
	cfg, a, err := cf.Load()
	if err != nil {
		return err
	}
	sys, err := core.Factorize(a, core.FactorOptions{})
	if err != nil {
		return err
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
	fmt.Printf("layout %dx%dx%d, %s, %s model: solve time %.6g s, residual %.3g\n",
		cf.Px, cf.Py, cf.Pz, cf.Algo, cf.Machine, rep.Time, solver.Residual(x, b))
	if cfg.Staleness > 0 {
		fmt.Printf("elastic: S=%d, %d stale supernodes, %d refinement passes, verified residual %.3g\n",
			cf.Staleness, rep.StaleSupernodes, rep.RefinePasses, rep.Residual)
	}

	if err := cliutil.WriteTrace("trace", *out, rep.Raw); err != nil {
		return err
	}

	bd, err := rep.Raw.TraceBreakdown()
	if err != nil {
		return err
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
		return nil
	}

	cp, err := rep.Raw.CriticalPath()
	if err != nil {
		return err
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
		return err
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
	return nil
}

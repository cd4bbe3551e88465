// Command perfbench is the repository's wall-clock and modeled-time
// benchmark. It runs one seeded workload for a fixed time, checks every
// answer, and prints the workload's metrics by name and unit; the last line
// of standard output is one JSON object
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// carrying the end-to-end metrics (-trace 0) or the per-layer metrics of a
// separate traced run (-trace 1). See README.md for the workloads.
//
//	bash perfbench/run.sh --workload pool-1rhs --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --all --seed 1 --seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"

	"sptrsv/internal/sparse"
)

// runOpts are one workload run's arguments.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input and repeat count for the package self-test.
	tiny bool
	// tamper perturbs one entry of every measured solution before it is
	// checked, so the self-test can show that each workload's checker
	// catches a wrong answer.
	tamper bool
	// spansDir receives the traced run's span file ("" keeps spans in
	// memory only).
	spansDir string
	// out receives the human-readable lines printed before the result.
	out io.Writer
}

// check verifies a measured solution, first perturbing it when the run
// tampers.
func (o runOpts) check(a *sparse.CSR, x, b *sparse.Panel) error {
	if o.tamper && x != nil && len(x.Data) > 0 {
		x.Data[len(x.Data)/2] *= 1 + 1e-6
	}
	return checkSolution(a, x, b)
}

// result is one workload run's outcome.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Errors lists the first few failures, for the human-readable output.
	Errors []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]float64{}}
}

// fail counts a failed operation. A wrong answer also clears Correct so
// the command exits non-zero.
func (r *result) fail(wrong bool, err error) {
	r.Failed++
	if wrong {
		r.Correct = false
	}
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// workload is one benchmark workload; measure drives it. S is the type of
// the workload's own per-operation samples.
type workload[S any] interface {
	// setup builds the workload from its generated inputs (solvers, or a
	// running service) and returns the seconds a user would wait for it.
	// A kept set-up is the one the windows use; one not kept is discarded
	// after it is timed. spans records the set-up's calls (nil: none).
	setup(spans *spanLog, keep bool) (float64, error)
	// warmup runs untimed operations until the workload is steady.
	warmup()
	// window runs operations for d. A non-nil spans marks the traced
	// window: the benchmark's spans and the program's public instruments
	// are armed.
	window(d time.Duration, spans *spanLog) measured[S]
	// allocBurst runs a fixed number of operations back to back and
	// returns the heap allocations and bytes per operation.
	allocBurst() (allocs, bytes float64)
	// layers fills the traced run's workload-specific per-layer metrics
	// (set-up stages, GEMM replay, what the samples carry) from its
	// untraced and traced windows.
	layers(m map[string]float64, spans *spanLog, base, traced measured[S]) error
	// summary prints the workload's own lines at the end of every run and
	// may add metrics.
	summary(m map[string]float64)
	// close stops what setup started.
	close() error
}

// measured is one window's observations.
type measured[S any] struct {
	lat     []float64 // latency of each measured operation, ms
	rate    float64   // units of work per second
	panels  float64   // panel solves the runtime ran: trsv.block_ops_per_solve's divisor
	samples []S
}

// setupsPerWindow is how many discarded set-ups run before each untraced
// window. With the first, kept set-up they give setup_s its median over
// 1 + subWindows·setupsPerWindow set-ups spread over the whole run, so set-up
// time samples the host in the same states the windows do rather than in
// the run's first second.
const setupsPerWindow = 2

// stageReps is how many times a traced run times each set-up stage.
func stageReps(o runOpts) int {
	if o.tiny {
		return 2
	}
	return 15
}

// measure runs one workload: set-up and warm-up, then either subWindows
// untraced windows with set-ups timed between them (the end-to-end
// metrics) or, traced, an untraced half and a traced half (the per-layer
// metrics).
func measure[S any](name string, w workload[S], o runOpts, res *result) (err error) {
	m := res.Metrics
	spans := newSpanLog(o.trace)
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	setup := func(spans *spanLog, keep bool) (float64, error) {
		goruntime.GC() // each set-up starts from a collected heap
		secs, err := w.setup(spans, keep)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		return secs, nil
	}
	secs, err := setup(spans, true)
	if err != nil {
		return err
	}
	setups := []float64{secs}
	w.warmup()
	total := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		var ws []windowStats
		n := 0
		for i := 0; i < subWindows; i++ {
			for j := 0; j < setupsPerWindow; j++ {
				if secs, err = setup(nil, false); err != nil {
					return err
				}
				setups = append(setups, secs)
			}
			goruntime.GC() // the window does not collect the set-ups' garbage
			mw := w.window(total/subWindows, nil)
			if len(mw.lat) == 0 {
				continue // every operation failed; res counts them
			}
			ws = append(ws, windowStats{p50: median(mw.lat), p99: quantile(mw.lat, 0.99), rate: mw.rate})
			n += len(mw.lat)
		}
		m["setup_s"] = median(setups)
		setWindowMedians(o.out, m, ws, n)
		w.summary(m)
		m["retained_heap_mb"] = retainedHeapMB()
		return nil
	}

	// Untraced half: no spans, no runtime tracer. It is the overhead
	// baseline and gives the allocation and block-operation counts.
	ops0 := blockOps()
	aw := startAllocWindow()
	base := w.window(total/2, nil)
	_, _, m["core.gc_cpu_frac"] = aw.stop(1)
	m["trsv.block_ops_per_solve"] = ratio(blockOps()-ops0, base.panels)
	m["core.allocs_per_solve"], m["core.alloc_bytes_per_solve"] = w.allocBurst()
	// Traced half: spans on every call into a layer, instruments armed.
	traced := w.window(total/2, spans)
	if len(base.lat) == 0 || len(traced.lat) == 0 {
		return nil // every operation failed; res counts them
	}
	m["bench.p99_ms"] = quantile(base.lat, 0.99)
	m["bench.trace_overhead_frac"] = median(traced.lat)/median(base.lat) - 1
	if err := w.layers(m, spans, base, traced); err != nil {
		return err
	}
	w.summary(m)
	m["retained_heap_mb"] = retainedHeapMB()
	return spans.write(o.spansDir, name, o.seed)
}

// runWorkload runs one workload and keeps the metrics its mode owes: every
// end-to-end metric untraced, every per-layer metric traced (0 for a layer
// the workload does not exercise).
func runWorkload(name string, o runOpts) (*result, error) {
	if o.out == nil {
		o.out = io.Discard
	}
	res := newResult()
	var err error
	switch name {
	case "pool-1rhs":
		err = measure(name, newPoolBench(o, res, 1), o, res)
	case "pool-16rhs":
		err = measure(name, newPoolBench(o, res, 16), o, res)
	case "des-fig4":
		err = measure(name, newDESBench(o, res), o, res)
	case "service-mixed":
		err = measure(name, newSvcBench(o, res), o, res)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	if res.Failed == res.Attempted {
		// Nothing succeeded, so nothing was measured or checked.
		res.Correct = false
	}
	want := endToEnd
	if o.trace {
		want = perLayer
		res.Metrics["bench.error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	out := make(map[string]float64, len(want))
	for _, m := range want {
		out[m.Name] = res.Metrics[m.Name]
	}
	res.Metrics = out
	return res, nil
}

type wireValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]wireValue `json:"metrics"`
}

// printResult writes the human-readable metric lines and then the JSON
// result as the last line.
func printResult(w io.Writer, workload string, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	wr := wireResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]wireValue, len(names))}
	fmt.Fprintf(w, "# %s: attempted %d, failed %d, error_rate %g, correct %v\n", workload,
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "#   error: %s\n", e)
	}
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(w, "# %-30s %16.6g %s\n", n, v, unitOf(n))
		wr.Metrics[n] = wireValue{Value: v, Unit: unitOf(n)}
	}
	line, err := json.Marshal(wr)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	workload := flag.String("workload", "", "workload to run: pool-1rhs, pool-16rhs, des-fig4, service-mixed")
	all := flag.Bool("all", false, "run every workload in turn (untraced), printing each workload's metrics")
	seed := flag.Int64("seed", 1, "seed of the generated matrices and right-hand sides")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	writeSpecTo := flag.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	flag.Parse()

	if *writeSpecTo != "" {
		f, err := os.Create(*writeSpecTo)
		if err == nil {
			err = writeSpec(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, out: os.Stdout,
		spansDir: filepath.Join(".bench_build", "spans")}
	names := []string{*workload}
	if *all {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	ok := true
	for _, name := range names {
		res, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(2)
		}
		if err := printResult(os.Stdout, name, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// Command serve runs the multi-tenant solve service (default) or the
// original self-driving solve loop (-mode loop).
//
// In serve mode it exposes the upload-once/solve-many HTTP API of
// internal/server — POST a Matrix Market body (or a generated analog by
// name) to get a handle, then solve against it — with bounded-queue
// admission control, per-tenant quotas, and multi-RHS request coalescing.
// /metrics serves the OpenMetrics exposition and /debug/pprof/ the
// standard profiler endpoints on the same port.
//
// Usage:
//
//	serve -addr 127.0.0.1:8080 -ranks 4 -max-batch 16 -max-wait 2ms \
//	      -quota-rate 0 -machine cori-haswell
//
//	curl -s -XPOST -H 'Content-Type: application/json' \
//	     -d '{"generate":{"name":"s2d9pt","scale":"small"}}' \
//	     http://127.0.0.1:8080/v1/matrices
//	curl -s -XPOST -H 'Content-Type: application/json' \
//	     -d '{"b":[1,1,...]}' http://127.0.0.1:8080/v1/matrices/<handle>/solve
//
// On SIGINT/SIGTERM the service shuts down gracefully: admission stops
// (new solves get 503), queued and coalescing requests drain bounded by
// -drain-timeout, a final serving summary prints, and only then does the
// HTTP listener close.
//
// Loop mode (-mode loop) keeps the previous behavior — repeated solves of
// one fixed configuration, /metrics and pprof on the side — and is what
// the CI smoke test drives with -n:
//
//	serve -mode loop -matrix s2d9pt -scale small -px 2 -py 2 -pz 2 -n 25
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/metrics"
	"sptrsv/internal/runtime"
	"sptrsv/internal/server"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

func main() {
	mode := flag.String("mode", "serve", "serve (multi-tenant solve service) or loop (self-driving solve loop)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")

	// Serve-mode flags.
	ranks := flag.Int("ranks", 4, "rank budget of the default process layout")
	maxQueue := flag.Int("max-queue", 256, "bounded admission queue depth (beyond it requests shed with 429)")
	maxBatch := flag.Int("max-batch", 16, "coalescer flush width (requests per multi-RHS panel solve)")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "coalescer flush deadline after the first request of a batch")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant requests/second (0 disables quotas)")
	quotaBurst := flag.Float64("quota-burst", 0, "per-tenant burst capacity (0 = max(8, 2x rate))")
	maxHandles := flag.Int("max-handles", 64, "matrix handle cache capacity (LRU eviction)")
	tuneFlag := flag.Bool("tune", false, "autotune the default config per uploaded matrix")
	tuneCacheDir := flag.String("tune-cache", "", "persistent tuned-config cache directory (with -tune)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on draining in-flight requests at shutdown")
	traceCap := flag.Int("trace-cap", 0, "per-rank event capacity of armed solve traces (0 = default 65536); overflow drops oldest events")
	exemplars := flag.Bool("exemplars", false, "attach request-ID exemplars to /metrics histogram buckets (OpenMetrics syntax)")
	flightCap := flag.Int("flight-cap", 0, "flight recorder capacity: retained slow/faulted solve captures (0 = default 64, negative disables)")
	slowFactor := flag.Float64("slow-factor", 0, "capture a flight when a solve exceeds this multiple of the rolling median latency (0 = default 8, negative disables)")

	// Shared flags (loop mode uses all of them; serve mode uses machine,
	// backend, and the solve-mode flags for its default configuration).
	matrix := flag.String("matrix", "s2d9pt", "loop mode: matrix analog: s2d9pt, nlpkkt, ldoor, dielfilter, gaas, s1mat")
	mtxPath := flag.String("mtx", "", "loop mode: solve a Matrix Market file instead of a generated analog")
	scale := flag.String("scale", "small", "loop mode: matrix scale: small, medium, large")
	px := flag.Int("px", 2, "loop mode: process rows per 2D grid")
	py := flag.Int("py", 2, "loop mode: process columns per 2D grid")
	pz := flag.Int("pz", 2, "loop mode: number of replicated 2D grids (power of two)")
	algoName := flag.String("algo", "proposed", "loop mode: algorithm: proposed, baseline, gpu-single, gpu-multi, naive-allreduce")
	treeName := flag.String("trees", "auto", "loop mode: communication trees: flat, binary, auto")
	machineName := flag.String("machine", "cori-haswell", "machine model (see internal/machine)")
	backendName := flag.String("backend", "sim", "backend: sim (modeled time) or pool (wall clock)")
	solveModeName := flag.String("solve-mode", "auto", "default solve mode: auto, strict, elastic (per-request override via config.mode; -mode is taken by serve/loop)")
	staleness := flag.Int("staleness", 16, "elastic mode's staleness bound S, in dependency levels")
	refineTol := flag.Float64("refine-tol", 0, "elastic mode's acceptance threshold on ‖b−Ax‖∞ (0 = default 1e-8)")
	refineMax := flag.Int("refine-max", 0, "cap on elastic iterative-refinement passes (0 = default 48)")
	nrhs := flag.Int("nrhs", 1, "loop mode: number of right-hand sides per solve")
	interval := flag.Duration("interval", 100*time.Millisecond, "loop mode: pause between solves (0 = back to back)")
	count := flag.Int("n", 0, "loop mode: stop after this many solves (0 = run until interrupted)")
	check := flag.Int("check", 10, "loop mode: verify the residual every check-th solve (0 = never)")
	flag.Parse()

	fail := func(err error) { cliutil.Fail("serve", err) }

	model, err := cliutil.ParseMachine(*machineName)
	if err != nil {
		fail(err)
	}
	solveMode, err := cliutil.ElasticFlags(*solveModeName, *staleness, *refineTol, *refineMax)
	if err != nil {
		fail(err)
	}
	var backend trsv.Backend
	switch *backendName {
	case "sim": // nil Config.Backend means the DES simulator
	case "pool":
		backend = trsv.PoolBackend{Pool: runtime.Pool{}}
	default:
		fail(fmt.Errorf("unknown backend %q (want sim, pool)", *backendName))
	}

	switch *mode {
	case "serve":
		svc, err := server.New(server.Options{
			Machine:      model,
			Ranks:        *ranks,
			Backend:      backend,
			Mode:         solveMode,
			Staleness:    *staleness,
			RefineTol:    *refineTol,
			RefineMax:    *refineMax,
			MaxQueue:     *maxQueue,
			MaxBatch:     *maxBatch,
			MaxWait:      *maxWait,
			QuotaRate:    *quotaRate,
			QuotaBurst:   *quotaBurst,
			MaxHandles:   *maxHandles,
			Tune:         *tuneFlag,
			TuneCacheDir: *tuneCacheDir,
			TraceCap:     *traceCap,
			Exemplars:    *exemplars,
			FlightCap:    *flightCap,
			SlowFactor:   *slowFactor,
		})
		if err != nil {
			fail(err)
		}
		runService(svc, *addr, *drainTimeout, fail)
	case "loop":
		runLoop(loopConfig{
			matrix: *matrix, mtxPath: *mtxPath, scale: *scale,
			px: *px, py: *py, pz: *pz,
			algoName: *algoName, treeName: *treeName,
			model: model, backend: backend,
			solveMode: solveMode, staleness: *staleness,
			refineTol: *refineTol, refineMax: *refineMax,
			nrhs: *nrhs,
			addr: *addr, interval: *interval, count: *count, check: *check,
		}, fail)
	default:
		fail(fmt.Errorf("unknown mode %q (want serve, loop)", *mode))
	}
}

// runService hosts the solve service until SIGINT/SIGTERM, then drains.
func runService(svc *server.Server, addr string, drainTimeout time.Duration, fail func(error)) {
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	fmt.Printf("solve service on http://%s (API under /v1, metrics at /metrics, pprof at /debug/pprof/)\n", ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fail(err)
	case sig := <-stop:
		fmt.Printf("%v: draining (bounded by %v)\n", sig, drainTimeout)
	}

	// Graceful shutdown: stop admitting and flush the coalescers first —
	// in-flight handlers still hold their connections — then close the
	// listener once every admitted request has its response.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "serve: drain incomplete: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}

	// Final serving summary — the metrics publish their last word.
	st := svc.Stats()
	fmt.Printf("served: %.0f ok, %.0f faulted, %.0f invalid, shed %.0f (queue) + %.0f (quota), %.0f during drain\n",
		st.OK, st.Faulted, st.Invalid, st.ShedQueueFull, st.ShedQuota, st.ShedDraining)
	if st.Flushes > 0 {
		fmt.Printf("coalescing: %.0f flushes, mean batch width %.2f\n", st.Flushes, st.MeanBatchWidth)
	}
	if st.OK > 0 {
		fmt.Printf("latency: queue p50/p99 %.3g/%.3g ms, solve p50/p99 %.3g/%.3g ms, request p50/p99 %.3g/%.3g ms\n",
			st.QueueWaitP50*1e3, st.QueueWaitP99*1e3,
			st.SolveP50*1e3, st.SolveP99*1e3,
			st.RequestP50*1e3, st.RequestP99*1e3)
	}
	if st.Flights > 0 {
		fmt.Printf("flight recorder: %.0f captures (GET /debug/flights before the process exits to keep them)\n", st.Flights)
	}
	if st.TraceDropped > 0 {
		fmt.Printf("tracing: %.0f trace events dropped, raise -trace-cap\n", st.TraceDropped)
	}
}

// loopConfig carries the original self-driving loop's flags.
type loopConfig struct {
	matrix, mtxPath, scale string
	px, py, pz             int
	algoName, treeName     string
	model                  *machine.Model
	backend                trsv.Backend
	solveMode              trsv.SolveMode
	staleness, refineMax   int
	refineTol              float64
	nrhs                   int
	addr                   string
	interval               time.Duration
	count, check           int
}

// runLoop is the pre-service behavior: repeated solves of one fixed
// configuration with /metrics and pprof on the side.
func runLoop(lc loopConfig, fail func(error)) {
	var a *sparse.CSR
	if lc.mtxPath != "" {
		a = cliutil.LoadMTX("serve", lc.mtxPath)
		fmt.Printf("matrix %s: n=%d, nnz=%d\n", lc.mtxPath, a.N, a.NNZ())
	} else {
		m := gen.Named(lc.matrix, gen.ParseScale(lc.scale))
		a = m.A
		fmt.Printf("matrix %s (analog of %s): n=%d, nnz=%d\n", m.Name, m.PaperName, a.N, a.NNZ())
	}
	sys, err := core.Factorize(a, core.FactorOptions{})
	if err != nil {
		fail(err)
	}

	algo, err := cliutil.ParseAlgorithm(lc.algoName)
	if err != nil {
		fail(err)
	}
	trees, err := cliutil.ParseTrees(lc.treeName)
	if err != nil {
		fail(err)
	}
	solver, err := core.NewSolver(sys, core.Config{
		Layout:    grid.Layout{Px: lc.px, Py: lc.py, Pz: lc.pz},
		Algorithm: algo,
		Trees:     trees,
		Machine:   lc.model,
		Backend:   lc.backend,
		Mode:      lc.solveMode,
		Staleness: lc.staleness,
		RefineTol: lc.refineTol,
		RefineMax: lc.refineMax,
	})
	if err != nil {
		fail(err)
	}

	// Serve /metrics and the pprof endpoints on an explicit mux — nothing
	// rides the default mux, so nothing else in the process can leak
	// handlers onto this port.
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(metrics.Default()))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", lc.addr)
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}()
	fmt.Printf("serving http://%s/metrics and http://%s/debug/pprof/\n", ln.Addr(), ln.Addr())
	fmt.Printf("solving %s %dx%dx%d on %s every %v — ctrl-c to stop\n",
		lc.algoName, lc.px, lc.py, lc.pz, lc.model.Name, lc.interval)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	b := sparse.NewPanel(a.N, lc.nrhs)
	for i := range b.Data {
		b.Data[i] = 1 + float64(i%7)/7
	}
	solves, failures := 0, 0
	for lc.count == 0 || solves < lc.count {
		x, rep, err := solver.Solve(b)
		solves++
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "serve: solve %d failed: %v\n", solves, err)
		} else if lc.check > 0 && solves%lc.check == 0 {
			fmt.Printf("solve %d: %.6g s, residual %.3g\n", solves, rep.Time, solver.Residual(x, b))
		}
		select {
		case <-stop:
			fmt.Printf("interrupted after %d solves (%d failed)\n", solves, failures)
			srv.Close()
			return
		case <-time.After(lc.interval):
		}
	}
	fmt.Printf("done: %d solves (%d failed)\n", solves, failures)
	srv.Close()
	if failures > 0 {
		os.Exit(1)
	}
}

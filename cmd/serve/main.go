// Command serve runs the multi-tenant solve service: the
// upload-once/solve-many HTTP API of internal/server — POST a Matrix
// Market body (or a generated analog by name) to get a handle, then solve
// against it — with bounded-queue admission control, per-tenant quotas,
// and multi-RHS request coalescing. /metrics serves the OpenMetrics
// exposition and /debug/pprof/ the standard profiler endpoints on the same
// port.
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
// -machine, -backend, the elastic group and -trace-cap are
// internal/cliutil's and set the default solve configuration: -staleness
// S > 0 makes elastic solves the default, and a request's
// config.staleness overrides it (0 opts out).
//
// On SIGINT/SIGTERM the service shuts down gracefully: admission stops
// (new solves get 503), queued and coalescing requests drain bounded by
// -drain-timeout, a final serving summary prints, and only then does the
// HTTP listener close.
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
	"sptrsv/internal/server"
)

func main() {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cf := cliutil.NewConfigFlags().Bind(fs, cliutil.Machine|cliutil.Backend|cliutil.Elastic|cliutil.TraceCap)
	var opts server.Options
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&opts.Ranks, "ranks", 4, "rank budget; the default layout is Pz replicated square 2D grids, Pz the largest power of two dividing it that the separator tree can feed")
	fs.IntVar(&opts.MaxQueue, "max-queue", 256, "bounded admission queue depth (beyond it requests shed with 429)")
	fs.IntVar(&opts.MaxBatch, "max-batch", 16, "coalescer flush width (requests per multi-RHS panel solve)")
	fs.DurationVar(&opts.MaxWait, "max-wait", 2*time.Millisecond, "coalescer flush deadline after the first request of a batch")
	fs.Float64Var(&opts.QuotaRate, "quota-rate", 0, "per-tenant requests/second (0 disables quotas)")
	fs.Float64Var(&opts.QuotaBurst, "quota-burst", 0, "per-tenant burst capacity (0 = max(8, 2x rate))")
	fs.IntVar(&opts.MaxHandles, "max-handles", 64, "matrix handle cache capacity (LRU eviction)")
	fs.BoolVar(&opts.Tune, "tune", false, "autotune the default config per uploaded matrix")
	fs.StringVar(&opts.TuneCacheDir, "tune-cache", "", "persistent tuned-config cache directory (with -tune)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on draining in-flight requests at shutdown")
	fs.BoolVar(&opts.Exemplars, "exemplars", false, "attach request-ID exemplars to /metrics histogram buckets (OpenMetrics syntax)")
	fs.IntVar(&opts.FlightCap, "flight-cap", 0, "flight recorder capacity: retained slow/faulted solve captures (0 = default 64, negative disables)")
	fs.Float64Var(&opts.SlowFactor, "slow-factor", 0, "capture a flight when a solve exceeds this multiple of the rolling median latency (0 = default 8, negative disables)")
	cliutil.Main(fs, func() error {
		cfg, err := cf.Config()
		if err != nil {
			return err
		}
		opts.Machine, opts.Backend, opts.TraceCap = cfg.Machine, cfg.Backend, cf.TraceCap
		opts.Staleness, opts.RefineTol, opts.RefineMax = cfg.Staleness, cfg.RefineTol, cfg.RefineMax
		svc, err := server.New(opts)
		if err != nil {
			return err
		}
		return runService(svc, *addr, *drainTimeout)
	})
}

// runService hosts the solve service until SIGINT/SIGTERM, then drains.
func runService(svc *server.Server, addr string, drainTimeout time.Duration) error {
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
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
		return err
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
	return nil
}

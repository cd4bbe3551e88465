// Package server is the multi-tenant solve service: an HTTP/JSON API over
// the core solver stack with an upload-once/solve-many handle cache,
// bounded-queue admission control with per-tenant quotas, and a coalescer
// that merges concurrent single-RHS requests into multi-RHS panel solves
// (the paper's nrhs amortization, applied to serving).
//
// The request path is: admission (quota → bounded queue, shedding with
// 429 + Retry-After) → per-(handle, config) coalescer (flush on max-batch
// or max-wait) → one SolveBatch per flush over a per-handle plan+solver
// cache keyed by machine × grid × algorithm. All timing —
// queue waits, coalescing deadlines, quota refills — goes through an
// injected Clock, so every queueing decision is testable without sleeps.
//
// API (see DESIGN.md §12 and the README quickstart for curl examples):
//
//	POST   /v1/matrices            upload a Matrix Market body, or JSON
//	                               {"generate":{"name":"s2d9pt","scale":"small"}}
//	GET    /v1/matrices            list handles
//	GET    /v1/matrices/{id}       one handle
//	DELETE /v1/matrices/{id}       drop a handle
//	POST   /v1/matrices/{id}/solve solve {"b":[...]} against a handle
//	GET    /healthz                liveness + queue depth
//	GET    /metrics                OpenMetrics exposition of the registry
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"mime"
	"net/http"
	"sync/atomic"
	"time"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/fault"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/metrics"
	"sptrsv/internal/mtx"
	"sptrsv/internal/reqtrace"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
	"sptrsv/internal/tune"
)

// maxBodyBytes bounds any request body (matrix uploads dominate).
const maxBodyBytes = 256 << 20

// maxLayoutRanks caps the total rank count a client-named layout may model
// (the paper's largest experiments use 2048 ranks; 4096 leaves headroom).
const maxLayoutRanks = 4096

// Debug and flight-recorder bounds.
const (
	// debugRequests bounds the request-record store behind
	// GET /debug/requests.
	debugRequests = 512
	// flightEvents bounds the flight recorder's total retained runtime
	// trace events across all flights.
	flightEvents = 1 << 20
	// slowWindow is the size of the rolling median behind the slow-flush
	// flight trigger (Options.SlowFactor).
	slowWindow = 64
	// refineBlowup triggers a flight capture when an elastic solve needs
	// this many refinement passes or more.
	refineBlowup = 8
)

// Options configures a Server. The zero value serves with sane defaults:
// DES backend, cori-haswell model, a 4-rank budget, 256-deep queue,
// 16-wide batches flushed after 2ms, quotas disabled.
type Options struct {
	// Machine is the default machine model (cori-haswell when nil).
	Machine *machine.Model
	// Ranks is the rank budget of the default (or autotuned) layout; 0
	// means 4. Each handle spreads it the paper's way (grid.ForBudget): as
	// many replicated 2D grids as the budget's power-of-two factor and the
	// handle's separator tree allow, the rest as one square 2D grid.
	Ranks int
	// Backend runs the solves: nil means the deterministic DES simulator;
	// set trsv.PoolBackend for wall-clock goroutine execution.
	Backend trsv.Backend
	// Staleness is the default staleness bound S in dependency levels: 0
	// serves strict solves, S > 0 elastic ones, which serve
	// degraded-but-refined answers under stragglers instead of stalling.
	// Requests override it per solve via config.staleness.
	Staleness int
	// RefineTol is the elastic solve's default acceptance threshold on the
	// refined residual (0 = core default).
	RefineTol float64
	// RefineMax caps elastic refinement passes (0 = core default).
	RefineMax int

	// MaxQueue bounds admitted-but-not-solving requests; beyond it new
	// requests shed with 429. 0 means 256.
	MaxQueue int
	// MaxBatch flushes a coalescer batch at this width. 0 means 16.
	MaxBatch int
	// MaxWait flushes a non-full batch this long after its first request.
	// 0 means 2ms.
	MaxWait time.Duration
	// QuotaRate grants each tenant this many requests/second (token
	// bucket); <= 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is the bucket capacity; 0 means max(8, 2×rate).
	QuotaBurst float64
	// MaxHandles bounds the handle cache (LRU eviction). 0 means 64.
	MaxHandles int

	// Tune autotunes the default config per handle (first solve pays the
	// probe search; the tuned-config cache makes it once per fingerprint).
	Tune bool
	// TuneCacheDir persists tuned configs across processes when Tune is
	// set ("" keeps the cache in memory only).
	TuneCacheDir string

	// TraceCap bounds the per-rank runtime trace ring of traced solves
	// (X-Trace requests and flight-recorder captures). 0 means the runtime
	// default cap.
	TraceCap int
	// FlightCap bounds how many anomalous requests the flight recorder
	// retains. 0 means 64; negative disables capture entirely.
	FlightCap int
	// SlowFactor triggers a flight capture when a flush's solve time exceeds
	// SlowFactor × the coalescer's rolling-median solve time. 0 means 8;
	// negative disables the slow trigger.
	SlowFactor float64
	// Exemplars turns on OpenMetrics exemplar exposition on the registry:
	// latency histogram buckets carry the request ID of a recent landing.
	Exemplars bool

	// Clock injects time; nil means the real wall clock.
	Clock Clock
	// Registry receives the server metrics; nil means metrics.Default().
	Registry *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Machine == nil {
		o.Machine = machine.CoriHaswell()
	}
	if o.Ranks <= 0 {
		o.Ranks = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 256
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.QuotaBurst <= 0 {
		o.QuotaBurst = math.Max(8, 2*o.QuotaRate)
	}
	if o.MaxHandles <= 0 {
		o.MaxHandles = 64
	}
	if o.Clock == nil {
		o.Clock = RealClock()
	}
	if o.Registry == nil {
		o.Registry = metrics.Default()
	}
	if o.FlightCap == 0 {
		o.FlightCap = 64
	}
	if o.SlowFactor == 0 {
		o.SlowFactor = 8
	}
	return o
}

// Server is the solve service. Create with New, mount Handler on an
// http.Server, and call Shutdown to drain.
type Server struct {
	opts      Options
	base      core.Config // every solve's configuration starts from it; baseFor adds the layout
	clock     Clock
	metrics   *serverMetrics
	admit     *admitter
	handles   *handleCache
	tuneCache *tune.Cache
	mux       *http.ServeMux

	store   *reqtrace.Store    // completed-request records (/debug/requests)
	flights *reqtrace.Recorder // anomalous-request captures (/debug/flights)
	reqSeq  atomic.Uint64      // server-assigned request ID sequence
	start   time.Time          // serving start (statusz uptime)
}

// New builds a Server.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Exemplars {
		opts.Registry.SetExemplars(true)
	}
	s := &Server{
		opts:    opts,
		clock:   opts.Clock,
		metrics: newServerMetrics(opts.Registry),
		handles: newHandleCache(opts.MaxHandles),
		store:   reqtrace.NewStore(debugRequests),
		flights: reqtrace.NewRecorder(opts.FlightCap, flightEvents),
	}
	s.base = core.Config{
		Algorithm: trsv.Proposed3D, Machine: opts.Machine, Backend: opts.Backend,
		Staleness: opts.Staleness, RefineTol: opts.RefineTol, RefineMax: opts.RefineMax,
	}
	s.start = s.clock.Now()
	s.admit = newAdmitter(opts.MaxQueue, NewQuotaSet(opts.QuotaRate, opts.QuotaBurst), s.clock, s.metrics)
	if opts.Tune {
		c, err := tune.OpenCache(opts.TuneCacheDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.tuneCache = c
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/matrices", s.handleUpload)
	s.mux.HandleFunc("GET /v1/matrices", s.handleList)
	s.mux.HandleFunc("GET /v1/matrices/{id}", s.handleGetMatrix)
	s.mux.HandleFunc("DELETE /v1/matrices/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/matrices/{id}/solve", s.handleSolve)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/requests/{id}", s.handleDebugRequest)
	s.mux.HandleFunc("GET /debug/requests/{id}/trace", s.handleDebugRequestTrace)
	s.mux.HandleFunc("GET /debug/flights", s.handleDebugFlights)
	s.mux.HandleFunc("GET /debug/flights/{id}", s.handleDebugFlight)
	s.mux.Handle("GET /metrics", metrics.Handler(opts.Registry))
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Handles returns the current handle count (for health and tests).
func (s *Server) Handles() int { return s.handles.len() }

// QueueDepth returns the current admitted-but-not-solving count.
func (s *Server) QueueDepth() int { return s.admit.depth() }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.admit.isDraining() }

// Shutdown gracefully drains the service: admission stops (new requests
// get 503), every coalescer's pending batch flushes immediately, and the
// call blocks until the last in-flight request has its response ready or
// ctx expires. It does not touch any http.Server — callers stop accepting
// connections (http.Server.Shutdown) after Shutdown returns, so in-flight
// handlers can still write their responses.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admit.startDrain()
	for _, h := range s.handles.list() {
		h.drainAll()
	}
	return s.admit.awaitIdle(ctx)
}

// drainAll flushes every built coalescer of the handle. A slot still being
// built has no coalescer yet; its request flushes itself on arrival (see
// coalescer.add).
func (h *Handle) drainAll() {
	h.mu.Lock()
	coals := make([]*coalescer, 0, len(h.slots))
	for _, sl := range h.slots {
		if sl.coal != nil {
			coals = append(coals, sl.coal)
		}
	}
	h.mu.Unlock()
	for _, c := range coals {
		c.drain()
	}
}

// ---- wire types ----

type errorResponse struct {
	Error       string  `json:"error"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

type uploadRequest struct {
	Generate *struct {
		Name string `json:"name"`
		// Scale is small, medium or large; omitted means medium, and
		// any other name is a 400.
		Scale string `json:"scale"`
	} `json:"generate"`
	Options *struct {
		TreeDepth    int `json:"tree_depth"`
		MaxSupernode int `json:"max_supernode"`
	} `json:"options"`
}

type matrixInfo struct {
	Handle      string   `json:"handle"`
	Fingerprint string   `json:"fingerprint"`
	Name        string   `json:"name"`
	N           int      `json:"n"`
	NNZ         int      `json:"nnz"`
	Configs     []string `json:"configs,omitempty"`
	Reused      bool     `json:"reused,omitempty"`
}

type wireConfig struct {
	Algorithm string `json:"algorithm"`
	Px        int    `json:"px"`
	Py        int    `json:"py"`
	Pz        int    `json:"pz"`
	Trees     string `json:"trees"`
	Machine   string `json:"machine"`
	// Per-request elastic group: a positive staleness opts in, 0 opts
	// out. Pointers distinguish "absent — use the server default" from an
	// explicit zero.
	Staleness *int     `json:"staleness"`
	RefineTol *float64 `json:"refine_tol"`
	RefineMax *int     `json:"refine_max"`
}

type wireFault struct {
	Seed            int64   `json:"seed"`
	Jitter          float64 `json:"jitter"`
	CrashRank       *int    `json:"crash_rank"`
	CrashAt         float64 `json:"crash_at"`
	StragglerRank   *int    `json:"straggler_rank"`
	StragglerFactor float64 `json:"straggler_factor"`
}

type solveRequest struct {
	B      []float64   `json:"b"`
	Config *wireConfig `json:"config"`
	Fault  *wireFault  `json:"fault"`
}

type solveResponse struct {
	X          []float64 `json:"x"`
	Handle     string    `json:"handle"`
	Config     string    `json:"config"`
	Tenant     string    `json:"tenant"`
	BatchWidth int       `json:"batch_width"`
	PanelWidth int       `json:"panel_width"`
	QueueWaitS float64   `json:"queue_wait_s"`
	SolveS     float64   `json:"solve_s"`
	MakespanS  float64   `json:"makespan_s"`
	// Elastic-mode outcome, omitted for strict solves.
	RefinePasses    int     `json:"refine_passes,omitempty"`
	StaleSupernodes int     `json:"stale_supernodes,omitempty"`
	Residual        float64 `json:"residual,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	resp := errorResponse{Error: msg}
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if retryAfter%time.Second != 0 || secs == 0 {
			secs++ // Retry-After is integral seconds; round up
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		resp.RetryAfterS = retryAfter.Seconds()
	}
	writeJSON(w, code, resp)
}

// ---- upload path ----

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	now := s.clock.Now()
	var (
		fopt core.FactorOptions
		a    *sparse.CSR
		name string
	)
	// Clients commonly send parameters ("application/json; charset=utf-8");
	// dispatch on the media type alone, not the raw header.
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	if ct == "application/json" {
		var req uploadRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error(), 0)
			return
		}
		if req.Generate == nil {
			writeError(w, http.StatusBadRequest, `JSON uploads need a "generate" object (or POST a Matrix Market body)`, 0)
			return
		}
		if req.Options != nil {
			fopt.TreeDepth = req.Options.TreeDepth
			fopt.MaxSupernode = req.Options.MaxSupernode
		}
		if !validGenName(req.Generate.Name) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("unknown matrix analog %q (want one of %v)", req.Generate.Name, gen.SuiteNames()), 0)
			return
		}
		scale := gen.Medium
		if req.Generate.Scale != "" {
			var err error
			if scale, err = gen.ParseScale(req.Generate.Scale); err != nil {
				writeError(w, http.StatusBadRequest, err.Error(), 0)
				return
			}
		}
		m := gen.Named(req.Generate.Name, scale)
		a, name = m.A, m.Name
	} else {
		raw, err := mtx.Read(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "matrix market parse: "+err.Error(), 0)
			return
		}
		a, name = raw.SymmetrizePattern(), "upload"
	}
	fopt, err := fopt.Resolve(a.N)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}

	// The identity lookup comes before the factorization, so a re-upload
	// costs a parse (or a generation) and a hash, never a factorization.
	id := HandleID(ContentHash(a), fopt)
	h, reused := s.handles.get(id, now)
	if !reused {
		sys, err := core.Factorize(a, fopt)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "factorize: "+err.Error(), 0)
			return
		}
		var evicted bool
		if h, reused, evicted = s.handles.add(id, sys, name, now); evicted {
			s.metrics.uploads.With("evicted").Inc()
		}
	}
	code, outcome := http.StatusCreated, "new"
	if reused {
		code, outcome = http.StatusOK, "reused"
	}
	s.metrics.uploads.With(outcome).Inc()
	writeJSON(w, code, s.matrixInfo(h, reused))
}

func validGenName(name string) bool {
	for _, n := range gen.SuiteNames() {
		if n == name {
			return true
		}
	}
	return false
}

func (s *Server) matrixInfo(h *Handle, reused bool) matrixInfo {
	return matrixInfo{
		Handle: h.ID, Fingerprint: h.Fingerprint, Name: h.Name,
		N: h.N, NNZ: h.NNZ, Configs: h.Configs(), Reused: reused,
	}
}

// ---- handle inspection ----

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	hs := s.handles.list()
	infos := make([]matrixInfo, len(hs))
	for i, h := range hs {
		infos[i] = s.matrixInfo(h, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"matrices": infos, "count": len(infos)})
}

func (s *Server) handleGetMatrix(w http.ResponseWriter, r *http.Request) {
	h, ok := s.handles.get(r.PathValue("id"), s.clock.Now())
	if !ok {
		writeError(w, http.StatusNotFound, "no such handle", 0)
		return
	}
	writeJSON(w, http.StatusOK, s.matrixInfo(h, false))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.handles.remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "no such handle", 0)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.admit.isDraining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": status, "queue_depth": s.admit.depth(), "handles": s.handles.len(),
	})
}

// ---- solve path ----

// requestID returns the client's X-Request-ID when it is well-formed
// (1–64 chars of [A-Za-z0-9._:-]) or a server-assigned sequential ID.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); validRequestID(id) {
		return id
	}
	return fmt.Sprintf("r-%06d", s.reqSeq.Add(1))
}

func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	t0 := s.clock.Now()
	reqID := s.requestID(r)
	w.Header().Set("X-Request-ID", reqID)
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	tc := reqtrace.New(reqID, tenant, t0)

	h, ok := s.handles.get(r.PathValue("id"), t0)
	if !ok {
		writeError(w, http.StatusNotFound, "no such handle", 0)
		return
	}
	var req solveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		s.metrics.requests.With("invalid").Inc()
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error(), 0)
		return
	}
	if len(req.B) != h.N {
		s.metrics.requests.With("invalid").Inc()
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("rhs has %d entries, matrix has %d rows", len(req.B), h.N), 0)
		return
	}
	b := sparse.NewPanel(h.N, 1)
	copy(b.Col(0), req.B)
	if row, _, v, bad := b.FindNonFinite(); bad {
		s.metrics.requests.With("invalid").Inc()
		writeError(w, http.StatusBadRequest, fmt.Sprintf("rhs entry %d is %v", row, v), 0)
		return
	}
	tc.SetAttr("handle", h.ID)
	tc.Span("decode", t0, s.clock.Now(), nil)

	// Admission comes before config resolution: resolving a config can run
	// the autotuner and solverFor builds a full distribution plan, so an
	// over-quota or shed client must be turned away before it can force
	// that work (and grow the per-handle slot map).
	verdict, retryAfter := s.admit.admit(tenant)
	if verdict != admitOK {
		s.finishShed(tc, verdict)
		switch verdict {
		case admitDraining:
			writeError(w, http.StatusServiceUnavailable, "server is draining", 0)
		case admitQuota:
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("tenant %q over quota", tenant), retryAfter)
		case admitQueueFull:
			writeError(w, http.StatusTooManyRequests, "request queue full", s.opts.MaxWait)
		}
		return
	}
	enq := s.clock.Now()

	cfg, err := s.resolveConfig(h, req.Config)
	if err != nil {
		s.admit.release()
		s.metrics.requests.With("invalid").Inc()
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	slot, key, err := s.solverFor(h, cfg)
	if err != nil {
		s.admit.release()
		s.metrics.requests.With("invalid").Inc()
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	tc.SetAttr("config", key)

	rq := &request{
		b: b, faults: faultPlan(req.Fault), enq: enq, done: make(chan result, 1),
		tc: tc, wantTrace: r.Header.Get("X-Trace") != "",
	}
	slot.coal.add(rq)

	select {
	case res := <-rq.done:
		if res.err != nil {
			// Everything the client controls — rhs shape and finiteness,
			// config validity — was vetted before the request reached a
			// coalescer, so a failure here is the solve itself (injected
			// fault or internal error): a server-side 500, never a 400.
			writeError(w, http.StatusInternalServerError, res.err.Error(), 0)
			s.finishRecord(tc, res, "fault", res.err.Error())
			return
		}
		encStart := s.clock.Now()
		writeJSON(w, http.StatusOK, solveResponse{
			X: res.x.Col(0), Handle: h.ID, Config: key, Tenant: tenant,
			BatchWidth: res.width, PanelWidth: res.panelWidth,
			QueueWaitS: res.queueWait, SolveS: res.solveTime, MakespanS: res.makespanS,
			RefinePasses: res.refinePasses, StaleSupernodes: res.staleSn, Residual: res.residual,
		})
		tc.Span("encode", encStart, s.clock.Now(), nil)
		s.finishRecord(tc, res, "ok", "")
	case <-r.Context().Done():
		// Client gone; the flush still completes and the coalescer settles
		// the admission accounting (the buffered done channel means the
		// abandoned send cannot block it). Nothing useful can be written —
		// but the record notes the abandonment for /debug/requests.
		s.metrics.requests.With("canceled").Inc()
		s.store.Add(tc.Finish("canceled", "client disconnected before the response", s.clock.Now()))
	}
}

// finishShed records a shed request: the latency histogram's shed outcome
// (so load shedding stays visible in the latency accounting) and a
// /debug/requests record naming the shed reason.
func (s *Server) finishShed(tc *reqtrace.Ctx, verdict admitVerdict) {
	now := s.clock.Now()
	total := now.Sub(tc.Start).Seconds()
	s.metrics.reqShed.ObserveExemplar(total, metrics.Exemplar{
		LabelKey: "request_id", LabelValue: tc.ID,
		Value: total, Ts: clockTs(now),
	})
	reason := map[admitVerdict]string{
		admitDraining:  "server draining",
		admitQuota:     "tenant over quota",
		admitQueueFull: "request queue full",
	}[verdict]
	s.store.Add(tc.Finish("shed", reason, now))
}

// finishRecord stores the request's final record, replacing any snapshot
// the coalescer's flight capture already stored for the same ID.
func (s *Server) finishRecord(tc *reqtrace.Ctx, res result, outcome, errMsg string) {
	rec := tc.Finish(outcome, errMsg, s.clock.Now())
	rec.BatchWidth = res.width
	rec.RefinePasses = res.refinePasses
	rec.TraceEvents = res.traceEvents
	rec.TraceDropped = res.traceDropped
	s.store.Add(rec)
}

// clockTs renders a clock time as a unix-seconds exemplar timestamp,
// clamping the pre-epoch instants a fake test clock can produce to 0
// (rendered as "no timestamp" in the exposition).
func clockTs(t time.Time) float64 {
	ts := float64(t.UnixNano()) / 1e9
	if ts < 0 {
		return 0
	}
	return ts
}

// faultPlan converts the wire chaos spec into a fault.Plan (nil when absent).
func faultPlan(wf *wireFault) *fault.Plan {
	if wf == nil {
		return nil
	}
	p := &fault.Plan{Seed: wf.Seed, Jitter: wf.Jitter}
	if wf.CrashRank != nil {
		p.Crash = map[int]float64{*wf.CrashRank: wf.CrashAt}
	}
	if wf.StragglerRank != nil {
		p.Straggler = map[int]float64{*wf.StragglerRank: wf.StragglerFactor}
	}
	return p
}

// resolveConfig maps the optional wire config onto a validated core.Config.
// A config that names no plan field (algorithm, trees, machine, layout)
// edits the handle's default (fixed or autotuned) configuration, so an
// elastic-only request keeps the tuned plan; one that names any starts
// from the handle's base configuration (baseFor), so a request naming only
// trees or a machine keeps the paper's layout of the rank budget.
func (s *Server) resolveConfig(h *Handle, wc *wireConfig) (core.Config, error) {
	if wc == nil {
		return s.defaultConfig(h)
	}
	cfg := s.baseFor(h)
	var err error
	if !wc.namesPlan() {
		if cfg, err = s.defaultConfig(h); err != nil {
			return core.Config{}, err
		}
	}
	if wc.Algorithm != "" {
		if cfg.Algorithm, err = cliutil.ParseAlgorithm(wc.Algorithm); err != nil {
			return core.Config{}, err
		}
	}
	if wc.Trees != "" {
		if cfg.Trees, err = cliutil.ParseTrees(wc.Trees); err != nil {
			return core.Config{}, err
		}
	}
	if wc.Machine != "" {
		if cfg.Machine, err = cliutil.ParseMachine(wc.Machine); err != nil {
			return core.Config{}, err
		}
	}
	if wc.Staleness != nil {
		cfg.Staleness = *wc.Staleness
	}
	if wc.RefineTol != nil {
		cfg.RefineTol = *wc.RefineTol
	}
	if wc.RefineMax != nil {
		cfg.RefineMax = *wc.RefineMax
	}
	if err := cliutil.CheckElastic(cfg); err != nil {
		return core.Config{}, err
	}
	if wc.Px != 0 || wc.Py != 0 || wc.Pz != 0 {
		cfg.Layout = grid.Layout{Px: wc.Px, Py: wc.Py, Pz: wc.Pz}
	}
	// Bound the modeled rank count before any plan is built: grid.Layout
	// itself accepts arbitrarily large grids, and plan size grows with the
	// layout, so an unchecked Px/Py/Pz is a memory amplification vector.
	// Each dimension is checked on its own so the product cannot overflow.
	if cfg.Layout.Px > maxLayoutRanks || cfg.Layout.Py > maxLayoutRanks ||
		cfg.Layout.Pz > maxLayoutRanks || cfg.Layout.Size() > maxLayoutRanks {
		return core.Config{}, fmt.Errorf("layout %dx%dx%d exceeds the server's %d-rank cap",
			cfg.Layout.Px, cfg.Layout.Py, cfg.Layout.Pz, maxLayoutRanks)
	}
	if err := core.ValidateConfig(h.sys, cfg); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// namesPlan reports whether the wire config names any plan field.
func (wc *wireConfig) namesPlan() bool {
	return wc.Algorithm != "" || wc.Trees != "" || wc.Machine != "" ||
		wc.Px != 0 || wc.Py != 0 || wc.Pz != 0
}

// baseFor is the base configuration on handle h: the server's base with
// the rank budget laid out over the handle's separator tree.
func (s *Server) baseFor(h *Handle) core.Config {
	cfg := s.base
	cfg.Layout = grid.ForBudget(s.opts.Ranks, h.sys.Tree.NumLeaves())
	return cfg
}

// defaultConfig resolves (once per handle, on the handle, so it dies with
// it) the configuration solves use when the request names none: the
// paper's layout of the rank budget (baseFor), or the autotuned choice
// when Options.Tune is set — with the tuned-config cache making the search
// a once-per-fingerprint cost that outlives the handle.
func (s *Server) defaultConfig(h *Handle) (core.Config, error) {
	d := &h.def
	d.once.Do(func() {
		d.cfg = s.baseFor(h)
		if s.opts.Tune {
			res, err := tune.Run(h.sys, s.opts.Machine, s.opts.Ranks,
				tune.Options{Cache: s.tuneCache})
			if err != nil {
				d.err = err
				return
			}
			d.cfg.Layout, d.cfg.Algorithm, d.cfg.Trees = res.Config.Layout, res.Config.Algorithm, res.Config.Trees
			return
		}
		d.err = core.ValidateConfig(h.sys, d.cfg)
	})
	return d.cfg, d.err
}

// solverFor returns the handle's built solver slot for cfg, building the
// plan + solver + coalescer exactly once per configuration key. The
// per-handle slot map is LRU-bounded at maxSlotsPerHandle.
func (s *Server) solverFor(h *Handle, cfg core.Config) (*solverSlot, string, error) {
	key := configKey(cfg)
	slot, slotEvicted := h.slot(key, s.clock.Now())
	if slotEvicted {
		s.metrics.solvers.With("evicted").Inc()
	}
	built := false
	slot.once.Do(func() {
		built = true
		slot.config = cfg
		slot.solver, slot.err = core.NewSolver(h.sys, cfg)
		if slot.err == nil {
			coal := newCoalescer(s, slot.solver)
			h.mu.Lock() // drainAll may read coal concurrently
			slot.coal = coal
			h.mu.Unlock()
		}
	})
	if built {
		s.metrics.solvers.With("miss").Inc()
	} else {
		s.metrics.solvers.With("hit").Inc()
	}
	if slot.err != nil {
		return nil, key, slot.err
	}
	return slot, key, nil
}

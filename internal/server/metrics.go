package server

import "sptrsv/internal/metrics"

// latencyBuckets is the one bucket layout every server latency histogram
// shares — queue wait, solve time, and end-to-end request time — so the SLO
// report can attribute a p99 to queuing versus compute without bucket-shape
// artifacts: a quantile estimated from one histogram is directly comparable
// to the same quantile from another.
var latencyBuckets = metrics.DefBuckets

// widthBuckets spans the coalescing widths a flush can reach.
var widthBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// serverMetrics holds one Server's metric handles. Families are registered
// on the Server's registry (metrics.Default() in production, a fresh
// registry in benchmarks and tests), and the fixed-label children are
// resolved once here so the request path never does a label lookup.
type serverMetrics struct {
	queueDepth *metrics.Gauge
	inflight   *metrics.Gauge

	queueWait *metrics.Histogram // admission → solve start, per request
	solveTime *metrics.Histogram // solve start → solve done, per request

	// End-to-end latency split by outcome so SLO math can separate
	// shed-rate from slow-rate: shed requests are fast 429s that would
	// otherwise drag the quantiles down (or, unobserved, vanish entirely).
	reqOK    *metrics.Histogram // admission → response ready, served solves
	reqFault *metrics.Histogram // admission → error ready, failed solves
	reqShed  *metrics.Histogram // arrival → 429 written, shed requests

	batchWidth *metrics.Histogram // requests per coalesced flush

	admission  metrics.CounterVec // outcome: admitted|queue_full|quota|draining
	requests   metrics.CounterVec // status: ok|fault|invalid|canceled
	flushes    metrics.CounterVec // reason: full|timer|drain
	solvers    metrics.CounterVec // outcome: hit|miss (solver/plan cache)
	uploads    metrics.CounterVec // outcome: new|reused|evicted
	flights    metrics.CounterVec // trigger: slow|fault|refine|request
	traceDrops *metrics.Counter   // runtime trace ring drops across all solves
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	m := &serverMetrics{
		admission: r.Counter("sptrsv_server_admission",
			"Admission decisions: admitted, queue_full (bounded queue at capacity), quota (tenant token bucket empty), draining (shutdown in progress).", "outcome"),
		requests: r.Counter("sptrsv_server_requests",
			"Solve requests by status: ok, fault (injected or runtime solve failure), invalid (malformed before admission, or a bad config rejected just after — the admission slots are released). canceled counts clients that disconnected while waiting — their solve still completes and is also counted by its outcome.", "status"),
		flushes: r.Counter("sptrsv_server_coalesce_flushes",
			"Coalescer flushes by trigger: full (max-batch reached), timer (max-wait expired), drain (shutdown flush).", "reason"),
		solvers: r.Counter("sptrsv_server_solver_cache",
			"Solver/plan cache lookups per solve request: hit reuses a built plan+schedule, miss pays the symbolic cost once, evicted counts LRU displacements from a handle's bounded slot map.", "outcome"),
		uploads: r.Counter("sptrsv_server_handle_uploads",
			"Matrix uploads: new (factored and cached), reused (a handle with the same matrix content and the same resolved factor options already held; no factorization), evicted (LRU handle displaced by a new upload).", "outcome"),
		flights: r.Counter("sptrsv_server_flight_captures",
			"Flight-recorder captures by trigger: slow (latency blew past the rolling median), fault (solve failed), refine (refinement-pass blowup), request (client armed tracing with X-Trace).", "trigger"),
	}
	m.traceDrops = r.Counter("sptrsv_server_trace_dropped_events",
		"Runtime trace ring events dropped across all traced solves — a rising count means raise the trace cap (-trace-cap).").With()
	m.queueDepth = r.Gauge("sptrsv_server_queue_depth",
		"Requests admitted but not yet solving (the bounded queue's occupancy).").With()
	m.inflight = r.Gauge("sptrsv_server_inflight_requests",
		"Requests admitted and not yet responded to (queued + solving).").With()
	m.queueWait = r.Histogram("sptrsv_server_queue_wait_seconds",
		"Per-request wait from admission to solve start. Shares its bucket layout with sptrsv_server_solve_seconds so p99s attribute cleanly.",
		latencyBuckets).With()
	m.solveTime = r.Histogram("sptrsv_server_solve_seconds",
		"Per-request solve duration (the coalesced batch solve the request rode in). Shares its bucket layout with sptrsv_server_queue_wait_seconds.",
		latencyBuckets).With()
	reqTime := r.Histogram("sptrsv_server_request_seconds",
		"Per-request end-to-end latency by outcome: ok (admission to response), fault (admission to error), shed (arrival to 429) — no request leaves the latency accounting.",
		latencyBuckets, "outcome")
	m.reqOK = reqTime.With("ok")
	m.reqFault = reqTime.With("fault")
	m.reqShed = reqTime.With("shed")
	m.batchWidth = r.Histogram("sptrsv_server_batch_width",
		"Coalesced requests per flush — the achieved multi-RHS width.",
		widthBuckets).With()
	return m
}

// Stats is a point-in-time summary of one Server's serving metrics, read
// straight from its histograms and counters — what the SLO report and the
// drain-time summary print.
type Stats struct {
	Admitted, ShedQueueFull, ShedQuota, ShedDraining float64
	OK, Faulted, Invalid, Canceled                   float64
	Flushes, MeanBatchWidth                          float64
	QueueWaitP50, QueueWaitP99                       float64
	SolveP50, SolveP99                               float64
	RequestP50, RequestP99                           float64
	SolverHits, SolverMisses                         float64
	Flights, TraceDropped                            float64
}

// Stats reads the current values. Quantiles are the fixed-bucket estimates
// of metrics.Histogram.Quantile (NaN with no observations).
func (s *Server) Stats() Stats {
	m := s.metrics
	st := Stats{
		Admitted:      m.admission.With("admitted").Value(),
		ShedQueueFull: m.admission.With("queue_full").Value(),
		ShedQuota:     m.admission.With("quota").Value(),
		ShedDraining:  m.admission.With("draining").Value(),
		OK:            m.requests.With("ok").Value(),
		Faulted:       m.requests.With("fault").Value(),
		Invalid:       m.requests.With("invalid").Value(),
		Canceled:      m.requests.With("canceled").Value(),
		QueueWaitP50:  m.queueWait.Quantile(0.50),
		QueueWaitP99:  m.queueWait.Quantile(0.99),
		SolveP50:      m.solveTime.Quantile(0.50),
		SolveP99:      m.solveTime.Quantile(0.99),
		RequestP50:    m.reqOK.Quantile(0.50),
		RequestP99:    m.reqOK.Quantile(0.99),
		SolverHits:    m.solvers.With("hit").Value(),
		SolverMisses:  m.solvers.With("miss").Value(),
		TraceDropped:  m.traceDrops.Value(),
	}
	for _, trigger := range []string{"slow", "fault", "refine", "request"} {
		st.Flights += m.flights.With(trigger).Value()
	}
	if n := m.batchWidth.Count(); n > 0 {
		st.Flushes = float64(n)
		st.MeanBatchWidth = m.batchWidth.Sum() / float64(n)
	}
	return st
}

package server

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/fault"
	"sptrsv/internal/metrics"
	"sptrsv/internal/reqtrace"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
)

// request is one admitted single-RHS solve riding the coalescer. Its done
// channel (buffered, capacity 1) receives exactly one result; the HTTP
// handler may abandon it on client disconnect without leaking the flush
// goroutine.
type request struct {
	b      *sparse.Panel // n×1 right-hand side, already validated finite
	faults *fault.Plan   // optional per-request chaos injection
	enq    time.Time     // admission time (Clock time)
	done   chan result

	tc        *reqtrace.Ctx // request trace context (nil in low-level tests)
	wantTrace bool          // client armed full runtime tracing (X-Trace)
}

// result is what a request gets back from its flush.
type result struct {
	x          *sparse.Panel // n×1 solution (nil on error)
	err        error
	width      int     // requests in the flush this request rode in
	queueWait  float64 // seconds from admission to solve start
	solveTime  float64 // seconds the batch solve took (shared by the flush)
	makespanS  float64 // modeled/wall makespan of this request's panel solve
	totalTime  float64 // seconds from admission to result ready
	panelWidth int     // columns of the panel this request was merged into

	// Elastic-mode outcome (zero under strict solves).
	refinePasses int
	staleSn      int
	residual     float64 // verified ‖b−Ax‖∞ when refinement ran

	// Runtime trace summary of this request's panel (0/0 untraced).
	traceEvents  int
	traceDropped int
}

// coalescer batches concurrent single-RHS requests against one
// (handle, config) pair into multi-RHS panel solves: requests accumulate
// until the batch reaches the server's max-batch size or the oldest
// request has waited max-wait, then the whole batch flushes as one
// SolveBatch call. Clean requests are merged into a single panel of
// batch-width columns — the paper's nrhs amortization, one communication
// schedule for the whole panel — while requests carrying a fault plan get
// their own panel so the injected failure stays theirs alone
// (core.SolveBatchWith + BatchError split the outcomes back out).
type coalescer struct {
	s      *Server
	solver *core.Solver

	// slowTrack holds this slot's rolling-median solve time; a flush
	// blowing past factor × median triggers a flight capture.
	slowTrack *reqtrace.SlowTracker
	// armNext, when set, arms full runtime tracing on the slot's next
	// flush: an incident detected on an untraced flush can't retroactively
	// produce a trace, so the recorder re-arms and the next anomaly (or
	// simply the next flush's capture) carries per-rank events.
	armNext atomic.Int32

	mu      sync.Mutex
	pending []*request
	timer   Timer
	gen     uint64 // flush generation; stale timer callbacks no-op
	// detached is set by drain: the coalescer was unlinked from its handle
	// (slot eviction, handle removal) or Shutdown has begun, so no later
	// drain pass can reach it.
	detached bool
}

func newCoalescer(s *Server, solver *core.Solver) *coalescer {
	factor := s.opts.SlowFactor
	if factor < 0 {
		factor = 0 // negative disables the slow trigger
	}
	return &coalescer{s: s, solver: solver,
		slowTrack: reqtrace.NewSlowTracker(s.opts.SlowWindow, factor)}
}

// add enqueues one admitted request, arming the max-wait timer on the
// first request of a batch and flushing immediately at max-batch. Once the
// coalescer is drained or Shutdown has begun it flushes immediately too: a
// request that looked its slot up before an eviction, or was admitted
// before Shutdown, may arrive after the drain that was its last chance, and
// no timer would flush it before MaxWait.
func (c *coalescer) add(r *request) {
	c.mu.Lock()
	c.pending = append(c.pending, r)
	if c.detached || c.s.admit.isDraining() {
		batch := c.takeLocked()
		c.mu.Unlock()
		c.s.metrics.flushes.With("drain").Inc()
		go c.run(batch)
		return
	}
	if len(c.pending) == 1 {
		gen := c.gen
		c.timer = c.s.clock.AfterFunc(c.s.opts.MaxWait, func() { c.timerFlush(gen) })
	}
	if len(c.pending) >= c.s.opts.MaxBatch {
		batch := c.takeLocked()
		c.mu.Unlock()
		c.s.metrics.flushes.With("full").Inc()
		go c.run(batch)
		return
	}
	c.mu.Unlock()
}

// timerFlush is the max-wait flush path. gen guards against the race where
// the timer concurrently loses to a max-batch flush: a stale generation
// means this timer's batch already flushed and the pending requests (if
// any) belong to a newer batch with its own timer.
func (c *coalescer) timerFlush(gen uint64) {
	c.mu.Lock()
	if gen != c.gen || len(c.pending) == 0 {
		c.mu.Unlock()
		return
	}
	batch := c.takeLocked()
	c.mu.Unlock()
	c.s.metrics.flushes.With("timer").Inc()
	go c.run(batch)
}

// drain flushes whatever is pending right now (shutdown, eviction and
// removal paths) and detaches the coalescer, so later adds flush at once.
// It returns how many requests it flushed.
func (c *coalescer) drain() int {
	c.mu.Lock()
	c.detached = true
	if len(c.pending) == 0 {
		c.mu.Unlock()
		return 0
	}
	batch := c.takeLocked()
	c.mu.Unlock()
	c.s.metrics.flushes.With("drain").Inc()
	go c.run(batch)
	return len(batch)
}

// takeLocked claims the pending batch, bumps the generation, and disarms
// the timer. Caller holds c.mu.
func (c *coalescer) takeLocked() []*request {
	batch := c.pending
	c.pending = nil
	c.gen++
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// run executes one flushed batch: group requests into panels, solve them
// as one SolveBatch, split results (and errors) back out per request.
func (c *coalescer) run(batch []*request) {
	s := c.s
	start := s.clock.Now()
	s.admit.dequeue(len(batch))
	s.metrics.batchWidth.Observe(float64(len(batch)))

	// Group: clean requests merge into one multi-RHS panel; each faulted
	// request keeps a private panel so its injection cannot leak onto
	// neighbors.
	var clean []int
	panels := []*sparse.Panel{}
	plans := []*fault.Plan{}
	owners := [][]int{} // request indices per panel, in column order
	for i, r := range batch {
		if r.faults == nil {
			clean = append(clean, i)
			continue
		}
		panels = append(panels, r.b)
		plans = append(plans, r.faults)
		owners = append(owners, []int{i})
	}
	if len(clean) == 1 {
		panels = append(panels, batch[clean[0]].b)
		plans = append(plans, nil)
		owners = append(owners, []int{clean[0]})
	} else if len(clean) > 1 {
		n := batch[clean[0]].b.Rows
		merged := sparse.NewPanel(n, len(clean))
		for j, i := range clean {
			copy(merged.Col(j), batch[i].b.Col(0))
		}
		panels = append(panels, merged)
		plans = append(plans, nil)
		owners = append(owners, clean)
	}

	assembled := s.clock.Now()

	// Per-panel solve specs: a panel runs with full runtime tracing when a
	// rider asked for it (X-Trace) or a prior incident on this slot armed
	// the next flush. Zero specs keep the hot path allocation-identical to
	// the untraced batch solve.
	armed := c.armNext.Swap(0) != 0
	specs := make([]core.SolveSpec, len(panels))
	for p := range specs {
		specs[p].Faults = plans[p]
		trace := armed
		for _, i := range owners[p] {
			if batch[i].wantTrace {
				trace = true
			}
		}
		if trace {
			specs[p].Trace = true
			specs[p].TraceCap = s.opts.TraceCap
		}
	}

	xs, reps, err := c.solver.SolveBatchWith(panels, specs)
	perPanel := make([]error, len(panels))
	if err != nil {
		var be *core.BatchError
		if errors.As(err, &be) && len(be.Errs) == len(panels) {
			copy(perPanel, be.Errs)
		} else {
			for i := range perPanel {
				perPanel[i] = err
			}
		}
	}

	end := s.clock.Now()
	solveDur := end.Sub(start).Seconds()
	slowFlush, _ := c.slowTrack.Observe(solveDur)
	for p, reqs := range owners {
		var raw *runtime.Result
		var tev, tdrop int
		if reps[p] != nil && reps[p].Raw != nil && reps[p].Raw.Trace != nil {
			raw = reps[p].Raw
			tev = raw.Trace.Events()
			for _, d := range raw.Trace.Dropped {
				tdrop += d
			}
			if tdrop > 0 {
				s.metrics.traceDrops.Add(float64(tdrop))
			}
		}
		var refineTime float64
		if reps[p] != nil {
			refineTime = reps[p].RefineTime
		}
		for j, i := range reqs {
			r := batch[i]
			res := result{
				width:        len(batch),
				panelWidth:   len(reqs),
				queueWait:    start.Sub(r.enq).Seconds(),
				solveTime:    solveDur,
				totalTime:    end.Sub(r.enq).Seconds(),
				traceEvents:  tev,
				traceDropped: tdrop,
			}
			outcome := "ok"
			if perPanel[p] != nil {
				outcome = "fault"
				res.err = perPanel[p]
				s.metrics.requests.With("fault").Inc()
			} else {
				if len(reqs) == 1 {
					res.x = xs[p]
				} else {
					x := sparse.NewPanel(r.b.Rows, 1)
					copy(x.Col(0), xs[p].Col(j))
					res.x = x
				}
				if reps[p] != nil {
					res.makespanS = reps[p].Time
					res.refinePasses = reps[p].RefinePasses
					res.staleSn = reps[p].StaleSupernodes
					// Strict reports carry NaN (unverified) — which
					// encoding/json cannot marshal — so only elastic solves'
					// verified residuals reach the wire.
					if !math.IsNaN(reps[p].Residual) {
						res.residual = reps[p].Residual
					}
				}
				s.metrics.requests.With("ok").Inc()
			}
			c.recordSpans(r, res, start, assembled, end, refineTime)
			s.observeOutcome(r, res, outcome, end)
			c.maybeCapture(r, res, outcome, slowFlush, raw, end)
			s.metrics.queueWait.Observe(res.queueWait)
			s.metrics.solveTime.Observe(res.solveTime)
			r.done <- res
			s.admit.finish()
		}
	}
}

// recordSpans writes the request's coalescer-side stage spans. The refine
// span's duration is the solver's modeled refinement seconds — a different
// clock than the wall-time stages, flagged by its clock attribute.
func (c *coalescer) recordSpans(r *request, res result, start, assembled, end time.Time, refineTime float64) {
	if r.tc == nil {
		return
	}
	r.tc.Span("queue-wait", r.enq, start, nil)
	r.tc.Span("batch-assembly", start, assembled, map[string]string{
		"batch_width": fmt.Sprintf("%d", res.width),
	})
	r.tc.Span("solve", assembled, end, map[string]string{
		"panel_width": fmt.Sprintf("%d", res.panelWidth),
		"makespan_s":  fmt.Sprintf("%g", res.makespanS),
	})
	if res.refinePasses > 0 {
		r.tc.Span("refine", end, end.Add(time.Duration(refineTime*float64(time.Second))),
			map[string]string{
				"passes": fmt.Sprintf("%d", res.refinePasses),
				"clock":  "modeled",
			})
	}
}

// observeOutcome lands the request in the outcome-labeled end-to-end
// latency histogram, carrying its request ID as an OpenMetrics exemplar.
func (s *Server) observeOutcome(r *request, res result, outcome string, end time.Time) {
	h := s.metrics.reqOK
	if outcome == "fault" {
		h = s.metrics.reqFault
	}
	if r.tc == nil {
		h.Observe(res.totalTime)
		return
	}
	h.ObserveExemplar(res.totalTime, metrics.Exemplar{
		LabelKey: "request_id", LabelValue: r.tc.ID,
		Value: res.totalTime, Ts: clockTs(end),
	})
}

// maybeCapture decides whether this request is an incident worth a flight:
// a solve fault beats a refinement blowup beats a slow flush beats a
// client-requested trace. The captured record also lands in the request
// store immediately, so a client that disconnects before its handler runs
// still leaves an inspectable record.
func (c *coalescer) maybeCapture(r *request, res result, outcome string, slowFlush bool, raw *runtime.Result, end time.Time) {
	s := c.s
	if r.tc == nil || s.opts.FlightCap < 0 {
		return
	}
	trigger := ""
	switch {
	case outcome == "fault":
		trigger = "fault"
	case s.opts.RefineBlowup > 0 && res.refinePasses >= s.opts.RefineBlowup:
		trigger = "refine"
	case slowFlush:
		trigger = "slow"
	case r.wantTrace:
		trigger = "request"
	}
	if trigger == "" {
		return
	}
	errMsg := ""
	if res.err != nil {
		errMsg = res.err.Error()
	}
	rec := r.tc.Finish(outcome, errMsg, end)
	rec.BatchWidth = res.width
	rec.RefinePasses = res.refinePasses
	rec.TraceEvents = res.traceEvents
	rec.TraceDropped = res.traceDropped
	s.flights.Capture(&reqtrace.Flight{Record: rec, Trigger: trigger, Res: raw})
	s.metrics.flights.With(trigger).Inc()
	s.store.Add(rec)
	if raw == nil {
		// The incident flush wasn't traced, so this flight has spans only.
		// Arm the slot: the next flush runs fully traced, and its capture
		// (if the anomaly repeats) carries per-rank events.
		c.armNext.Store(1)
	}
}

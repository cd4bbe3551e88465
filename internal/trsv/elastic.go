package trsv

// Elastic stale-synchronous execution: instead of blocking indefinitely on
// every cross-rank dependency (strict mode), each rank arms one deadline
// tick per algorithm phase. The tick's deadline is the phase's dependency
// depth plus the staleness bound S, in level quanta, measured from run
// start — i.e. a rank tolerates its inputs running up to S dependency
// levels behind the modeled healthy schedule. A tick that fires while its
// phase is still open forces the phase closed: outstanding dependency
// counters are zeroed, unsolved diagonal rows are solved with whatever
// partial sums are on hand (missing contributions read as zero — the
// "last-received, initially zero" value), the forced rows are recorded in
// the per-sweep stale sets, and the normal phase-transition machinery runs.
// Late real messages find their phase closed and park in the deferral
// buffer, never re-entering the numerics, so a same-seed elastic DES run
// is bit-deterministic.
//
// Every rank self-closes at its own deadline, so no forced closure can
// starve a peer: liveness never depends on a post-deadline message. The
// forced sends the closures do emit (diagonal-solve broadcasts, allreduce
// bundles) keep the wire protocol uniform and feed any peer still inside
// the phase.
//
// The solve result may therefore be inexact — callers (core.Solver) read
// ElasticStats and run iterative refinement until the true residual meets
// tolerance, preserving the verified-solution-or-typed-fault contract.

import "sptrsv/internal/runtime"

// elasticSlack scales the modeled per-level quantum on the DES backend: it
// absorbs the modeling error between the quantum's average-cost estimate
// and real per-level critical paths, so healthy runs finish phases well
// before their deadlines and forcing only triggers on genuinely late
// dependencies.
const elasticSlack = 2.0

// poolTickQuantum is the wall-clock per-level quantum (seconds) on the pool
// backend, where no machine model prices a level. Deep chains get
// proportionally longer deadlines, and the watchdog (when armed) still
// bounds any single wait.
const poolTickQuantum = 2e-3

// elastic is a rank's read-only elastic-mode configuration plus its lazily
// computed phase deadlines. One per rank handler, built in rankCore.init
// only when the solve asked for a positive staleness bound. The deadlines derive from the grid schedule's dependency depths
// (rankCore.sg).
type elastic struct {
	staleness int

	// deadlines are the absolute per-phase forcing times (seconds since
	// run start, virtual or wall): index 0 closes the L phase, 1 the
	// inter-grid exchange (allreduce / Z), 2 the U phase. Computed on
	// first arm because the quantum depends on the backend (Ctx.Virtual).
	ready     bool
	deadlines [3]float64
}

// prepare computes the per-phase deadlines. The per-level quantum on the
// DES backend is throughput-aware: a rank's cost for one dependency level
// is its share of the level's supernodes, each paying fan-out send and
// fan-in receive overheads plus a couple of panel kernels, on top of one
// network hop — all times elasticSlack so healthy runs finish well inside
// their deadlines. The pool backend uses a fixed wall quantum. Deadlines
// are cumulative: a phase's budget is its grid-global dependency depth
// plus the staleness bound, in quanta, on top of the previous phase's
// deadline.
func (el *elastic) prepare(ctx *runtime.Ctx, c *rankCore) {
	sg := c.sg
	var q float64
	if ctx.Virtual() {
		w, n := 1, len(sg.Sns)
		if n > 0 {
			total := 0
			for _, k := range sg.Sns {
				total += c.snWidth(k)
			}
			w = max(1, total/n)
		}
		depth := max(1, sg.LDepth)
		ranks2d := max(1, c.p.Layout.Px*c.p.Layout.Py)
		perRank := float64(n) / float64(depth) / float64(ranks2d)
		if perRank < 1 {
			perRank = 1
		}
		fan := float64(c.p.Layout.Px + c.p.Layout.Py - 1)
		bytes := wireEnvBytes + wireHdrBytes + w*c.st.nrhs*8
		so, lat, ro := c.model.Net().Cost(0, c.p.Layout.Size()-1, bytes)
		q = elasticSlack * (perRank*(fan*(so+ro)+3*c.model.GemmTime(w, w, c.st.nrhs)) + lat)
	} else {
		q = poolTickQuantum
	}
	s := float64(el.staleness)
	arLevels := 0.0
	if c.p.Layout.Pz > 1 {
		// Reduce plus broadcast rounds of the inter-grid exchange.
		arLevels = float64(2*c.p.Map.L + 1)
	}
	dL := (float64(sg.LDepth) + s) * q
	dAR := dL + (arLevels+s)*q
	dU := dAR + (float64(sg.UDepth)+s)*q
	el.deadlines = [3]float64{dL, dAR, dU}
	el.ready = true
}

// armElastic arms the current phase's staleness-deadline tick, once per
// phase. The shell calls it at the end of Init and of every OnMessage, so
// each phase transition arms the next deadline exactly once; a no-op in
// strict mode and once the solve is done. The tick is a self-addressed
// timer (Ctx.After) carrying the phase index; the runtime exempts it from
// straggler inflation — a slowed rank's deadline is an absolute timeout,
// not a slowed-down one.
func (c *rankCore) armElastic(ctx *runtime.Ctx) {
	el := c.el
	if el == nil {
		return
	}
	st := c.st
	ph := st.phase
	if ph < 0 || ph >= 3 || st.elArmed[ph] {
		return
	}
	if !el.ready {
		el.prepare(ctx, c)
	}
	st.elArmed[ph] = true
	ctx.After(max(0, el.deadlines[ph]-ctx.Now()), tagElastic, ph)
}

// TickLive implements runtime.ElasticTicker: the DES engine discards a
// deadline tick without delivering it (and without charging the wait that
// would drag the rank's clock to the deadline) when the tick's phase has
// already closed.
func (c *rankCore) TickLive(data any) bool {
	st := c.st
	if c.el == nil || st == nil || st.phase >= 3 {
		return false
	}
	ph, ok := data.(int)
	return ok && st.phase <= ph
}

// Progress implements runtime.Progresser: supernode diagonal solves
// completed across both sweeps versus this rank's total, embedded in stall
// diagnostics to separate deadlock from slow progress.
func (c *rankCore) Progress() (done, total int) {
	st := c.st
	if st == nil {
		return 0, 0
	}
	return st.counts.diag[sweepL] + st.counts.diag[sweepU], 2 * len(c.myDiagSns)
}

// markStale records that supernode k's solve in sweep sw (y(k) or x(k))
// consumed stale or missing inputs; idempotent per sweep.
func (c *rankCore) markStale(sw, k int) {
	if c.el == nil {
		return
	}
	st := c.st
	if s := c.slot(k); s >= 0 && !st.stale[sw].has(s) {
		st.stale[sw].set(s)
		st.counts.staleRows++
	}
}

// markStaleAR marks every replicated diagonal row of this rank stale in
// the L sweep: a forced inter-grid exchange may have merged incomplete
// partial sums into any of them.
func (c *rankCore) markStaleAR() {
	for _, k := range c.myDiagSns {
		if c.gp.Path[c.gp.NodeOf[k]].Replicated() {
			c.markStale(sweepL, k)
		}
	}
}

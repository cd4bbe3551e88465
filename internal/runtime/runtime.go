// Package runtime executes message-driven per-rank algorithms under two
// interchangeable backends:
//
//   - Engine: a deterministic discrete-event simulator in which every rank
//     carries a virtual clock, message delivery costs follow a pluggable
//     network model, and per-rank time is attributed to floating-point
//     work, intra-grid (XY) communication, or inter-grid (Z)
//     communication. This backend regenerates the paper's figures.
//   - Pool: a real goroutine-per-rank backend exchanging messages over
//     in-memory queues, used for wall-clock benchmarks on the host machine.
//
// Both backends run the same Handler implementations, which perform the
// actual numeric work — every simulated experiment is also a bit-exact
// correctness run.
package runtime

import (
	"fmt"
	"math"
)

// Category classifies where a rank's time goes, matching the breakdown in
// the paper's Figs. 5–6 (FP-Operation, XY-Comm, Z-Comm).
type Category int

const (
	CatFP    Category = iota // floating-point block operations
	CatXY                    // intra-grid communication
	CatZ                     // inter-grid communication
	CatFault                 // injected fault time (straggler slowdown, jitter)
	numCategories
)

func (c Category) String() string {
	switch c {
	case CatFP:
		return "FP-Operation"
	case CatXY:
		return "XY-Comm"
	case CatZ:
		return "Z-Comm"
	case CatFault:
		return "Fault"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Msg is a point-to-point message. Data carries real payload (the handlers
// do real numerics); Bytes is the modeled wire size used by the network
// model. The sender must not retain or mutate Data after sending.
//
// Data stays an interface: a pointer stored in it costs no allocation, so
// a sender that takes its payload records from storage it owns (the trsv
// handlers use per-solve slabs, valid until the run quiesces) sends
// without allocating, and a typed Msg would pull every algorithm's payload
// types into this package. Boxing a non-pointer value does allocate.
type Msg struct {
	Src, Dst int
	Tag      int
	Cat      Category
	Data     any
	Bytes    int

	// id and at are stamped by a tracing backend: id links the send event
	// to its delivery events, at is the send time (Pool wall clock).
	id int64
	at float64
}

// Handler is one rank's algorithm state machine. Implementations must be
// driven entirely by Init and OnMessage (the paper's Algorithms 3 and 5 are
// already in this form: fmod counters plus a blocking any-source receive
// loop).
type Handler interface {
	// Init runs once at time zero, before any delivery.
	Init(ctx *Ctx)
	// OnMessage processes one delivered message.
	OnMessage(ctx *Ctx, m Msg)
	// Done reports that the rank expects no further messages. The run
	// finishes when every rank is done and no messages are in flight.
	Done() bool
}

// WaitStater is optionally implemented by handlers to describe what they
// are waiting for — phase, outstanding receive counters, queue depths.
// Stall and deadlock diagnostics (fault.StallError.State) embed it so a
// stuck solve reports the algorithm's own view of the hang.
type WaitStater interface {
	WaitState() string
}

// waitState returns h's self-description, or "" when it offers none.
func waitState(h Handler) string {
	if ws, ok := h.(WaitStater); ok {
		return ws.WaitState()
	}
	return ""
}

// Progresser is optionally implemented by handlers to report solve
// progress: units of work completed versus the rank's total (the trsv
// handlers count diagonal panel solves across both sweeps). Stall and
// deadlock diagnostics embed it so an operator can tell a true deadlock
// (progress frozen near zero) from slow-but-live progress.
type Progresser interface {
	Progress() (done, total int)
}

// progressOf returns h's progress, or zeros when it offers none.
func progressOf(h Handler) (int, int) {
	if p, ok := h.(Progresser); ok {
		return p.Progress()
	}
	return 0, 0
}

// ElasticTicker is implemented by handlers running an elastic-mode solve
// (Options.ElasticTag nonzero). Before delivering a message carrying the
// elastic tag — a staleness-deadline timer pop — the DES Engine asks the
// destination whether the tick is still live; stale ticks (the rank
// already moved past the tick's phase, or finished) are discarded without
// charging wait time or bumping the rank's clock.
type ElasticTicker interface {
	TickLive(data any) bool
}

// DeadLetterer is optionally implemented by elastic handlers: DeadOnArrival
// reports that a delivered payload can no longer influence the numerics —
// it belongs to a phase (or reduction step) the rank has already moved
// past, typically after a forced closure, and the deferral protocol will
// park it forever. The DES Engine still delivers such a message, keeping
// the handler bookkeeping uniform, but skips the wait charge that would
// drag the rank's clock to the arrival time: a real rank polls past dead
// traffic instead of blocking on it, so packets that straggle in after a
// phase was forcibly closed must not inflate the modeled makespan. Only
// consulted on elastic runs (Options.ElasticTag nonzero); admission gates
// are monotone (phases, stages, and reduction steps only advance), so a
// true answer is permanent and the classification is deterministic.
type DeadLetterer interface {
	DeadOnArrival(m Msg) bool
}

// Ctx is the per-rank facade handlers use to interact with the backend.
type Ctx struct {
	rank int
	b    backend
}

// backend is implemented by Engine and Pool.
type backend interface {
	send(src int, m Msg)
	sendAfter(src int, delay float64, m Msg)
	after(src int, delay float64, tag int, data any)
	compute(rank, tag int, seconds float64, f func())
	span(rank, tag int, start, dur float64)
	elapse(rank int, cat Category, seconds float64)
	now(rank int) float64
	mark(rank int, key string)
	isVirtual() bool
	traced() bool
}

// Rank returns the rank this context belongs to.
func (c *Ctx) Rank() int { return c.rank }

// Now returns the rank's current clock: virtual seconds under the Engine,
// wall-clock seconds since start under the Pool.
func (c *Ctx) Now() float64 { return c.b.now(c.rank) }

// Send delivers m to m.Dst. Src is stamped automatically.
func (c *Ctx) Send(m Msg) {
	m.Src = c.rank
	c.b.send(c.rank, m)
}

// SendAfter delivers m to m.Dst exactly delay seconds from now, bypassing
// the network model — the mechanism for one-sided (NVSHMEM-style) puts
// whose cost the GPU model computes itself. Engine backend only.
func (c *Ctx) SendAfter(delay float64, m Msg) {
	m.Src = c.rank
	c.b.sendAfter(c.rank, delay, m)
}

// After schedules a self-message delivered delay seconds from now — the
// mechanism the GPU execution model uses for task completions. Only the
// Engine backend supports it; the Pool rejects it, since the GPU model is
// simulation-only.
func (c *Ctx) After(delay float64, tag int, data any) {
	c.b.after(c.rank, delay, tag, data)
}

// Compute performs f (which may be nil) and charges the rank seconds of
// floating-point time. Under the Engine the charge is the modeled seconds;
// under the Pool the real execution time is recorded instead.
func (c *Ctx) Compute(seconds float64, f func()) {
	c.b.compute(c.rank, 0, seconds, f)
}

// ComputeT is Compute with a caller-chosen span tag recorded in the trace
// (see Options.Trace), letting handlers label what each FP span was —
// diagonal solve, block GEMM, allreduce merge. Timing semantics are
// identical to Compute.
func (c *Ctx) ComputeT(tag int, seconds float64, f func()) {
	c.b.compute(c.rank, tag, seconds, f)
}

// Span records a trace-only annotation covering [start, start+dur) on the
// rank's clock — the scheduled execution path uses it to mark each level
// sweep as one event (tag = LevelSweepTag(taskCount)). It charges no time
// and schedules nothing, so enabling or disabling it cannot perturb the
// run: the member compute spans have already advanced the clock. A no-op
// when tracing is off.
func (c *Ctx) Span(tag int, start, dur float64) {
	c.b.span(c.rank, tag, start, dur)
}

// Elapse advances the rank's clock by the modeled overhead, attributed to
// cat. The Pool backend ignores it (real overheads are already in the wall
// clock).
func (c *Ctx) Elapse(cat Category, seconds float64) {
	c.b.elapse(c.rank, cat, seconds)
}

// Mark records the rank's current clock under key; stats use marks to
// compute per-phase durations (L-solve vs U-solve, Figs. 7–10).
func (c *Ctx) Mark(key string) { c.b.mark(c.rank, key) }

// Virtual reports whether time is simulated; handlers that only make sense
// under the Engine (the GPU models) check it.
func (c *Ctx) Virtual() bool { return c.b.isVirtual() }

// Traced reports whether this run records an event trace (Options.Trace).
// Handlers check it to skip clock reads that only feed trace annotations
// such as Span, which are no-ops when it is false.
func (c *Ctx) Traced() bool { return c.b.traced() }

// Timers accumulates a rank's attributed time and traffic.
type Timers struct {
	ByCat [numCategories]float64
	Marks map[string]float64
	// MsgsSent and BytesSent count this rank's outgoing messages per
	// category (self-events excluded) — the message-count statistics
	// behind the paper's tree-communication argument.
	MsgsSent  [numCategories]int
	BytesSent [numCategories]int
	// Waits and WaitSeconds count the blocking receives that idled this
	// rank and the total time it spent blocked. The seconds are already
	// included in ByCat (charged to the category of the message that ended
	// each wait); these fields separate "idle waiting" from "processing".
	Waits       int
	WaitSeconds float64
}

// Total returns the sum across categories.
func (t *Timers) Total() float64 {
	s := 0.0
	for _, v := range t.ByCat {
		s += v
	}
	return s
}

// Result is the outcome of a run: per-rank finishing clocks and timers,
// plus the event trace when the backend ran with Options.Trace.
type Result struct {
	Clocks []float64
	Timers []Timers
	// Trace is the per-rank event history; nil unless tracing was enabled.
	Trace *Trace
}

// MaxClock returns the latest rank clock: the run's makespan, the quantity
// the paper reports as SpTRSV time.
func (r *Result) MaxClock() float64 {
	m := 0.0
	for _, c := range r.Clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// active reports whether the rank did anything at all during the run:
// attributed time, sent messages, or phase marks.
func (t *Timers) active() bool {
	if t.Marks != nil || t.Total() > 0 {
		return true
	}
	for _, c := range t.MsgsSent {
		if c > 0 {
			return true
		}
	}
	return false
}

// Participants returns the number of ranks that did any work during the
// run. On replicated grids some ranks can hold no blocks of any supernode
// and never run a handler step; per-rank means must not be deflated by
// them.
func (r *Result) Participants() int {
	n := 0
	for i := range r.Timers {
		if r.Timers[i].active() {
			n++
		}
	}
	return n
}

// MeanCat returns the mean over participating ranks of the given category,
// matching the "averaged over all MPI ranks" breakdown plots (idle ranks
// that never ran a handler are excluded, so replicated grids don't deflate
// the mean).
func (r *Result) MeanCat(cat Category) float64 {
	p := r.Participants()
	if p == 0 {
		return 0
	}
	s := 0.0
	for i := range r.Timers {
		s += r.Timers[i].ByCat[cat]
	}
	return s / float64(p)
}

// TotalMsgs sums sent messages over ranks and categories.
func (r *Result) TotalMsgs() int {
	n := 0
	for i := range r.Timers {
		for _, c := range r.Timers[i].MsgsSent {
			n += c
		}
	}
	return n
}

// TotalBytes sums sent bytes over ranks and categories.
func (r *Result) TotalBytes() int {
	n := 0
	for i := range r.Timers {
		for _, c := range r.Timers[i].BytesSent {
			n += c
		}
	}
	return n
}

// CatMsgs sums sent messages of one category over ranks.
func (r *Result) CatMsgs(cat Category) int {
	n := 0
	for i := range r.Timers {
		n += r.Timers[i].MsgsSent[cat]
	}
	return n
}

// MarkSpan returns per-rank durations between two marks. A rank missing
// either mark, or whose marks were recorded out of order (to before from),
// yields NaN — a span that doesn't exist, not a zero-length one. Callers
// aggregating spans must skip NaN entries rather than fold them into means.
func (r *Result) MarkSpan(from, to string) []float64 {
	out := make([]float64, len(r.Timers))
	for i := range r.Timers {
		out[i] = math.NaN()
		m := r.Timers[i].Marks
		if m == nil {
			continue
		}
		a, okA := m[from]
		b, okB := m[to]
		if okA && okB && b >= a {
			out[i] = b - a
		}
	}
	return out
}

package runtime

import (
	"fmt"
	"runtime/debug"

	"sptrsv/internal/fault"
)

// Network models the cost of one point-to-point message.
//
// Cost returns the sender-side injection overhead (CPU time the sender
// spends in the send call), the end-to-end latency until the payload is
// available at the receiver (the α + β·bytes term, link chosen by the
// src/dst placement), and the receiver-side processing overhead charged
// when the message is consumed — the term that makes high fan-in flat
// reductions expensive in real MPI. Self-messages scheduled with Ctx.After
// bypass it.
type Network interface {
	Cost(src, dst, bytes int) (sendOverhead, latency, recvOverhead float64)
}

// ZeroNetwork is a Network with no cost; unit tests use it to check pure
// algorithm correctness.
type ZeroNetwork struct{}

// Cost implements Network.
func (ZeroNetwork) Cost(_, _, _ int) (float64, float64, float64) { return 0, 0, 0 }

type event struct {
	time     float64
	seq      int
	recvOver float64
	msg      Msg
}

// before is the delivery order: virtual time, ties broken by scheduling
// sequence. seq is unique per run, so the order is strict and total and
// any correct priority queue pops the same sequence.
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events in delivery order. It is
// typed, so push and pop move events by value without boxing them into
// interfaces; sifts move a hole instead of swapping.
type eventQueue []event

// push adds ev to the queue.
func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the earliest event; the queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the payload reference held beyond len
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// Engine is the discrete-event backend. Events are delivered in global
// virtual-time order with a deterministic sequence tie-break, so two runs of
// the same deterministic handlers produce identical clocks — including under
// fault injection, whose PRNG draws happen in that same global order.
type Engine struct {
	net       Network
	handlers  []Handler
	clocks    []float64
	timers    []Timers
	queue     eventQueue
	seq       int
	delivered int
	// MaxEvents guards against runaway handlers; 0 means the default.
	MaxEvents int
	// Opts enables optional instrumentation (event tracing) and fault
	// injection. Zero value: everything off, no overhead on the hot paths.
	Opts Options

	tr *tracer
	// msgID numbers traced messages. It is deliberately separate from seq:
	// seq breaks virtual-time ties in the event heap, and tracing must not
	// perturb that ordering (determinism is pinned by tests).
	msgID int64

	inj     *fault.Injector
	crashed []bool
	// firstCrash records the earliest injected crash that fired; the run
	// reports it as a fault.CrashError.
	firstCrash *fault.CrashError
	// faults tallies the injected faults that fired this run, published to
	// the metrics registry when the run ends.
	faults faultTally
}

// NewEngine creates a DES over n ranks with the given network model.
func NewEngine(n int, net Network) *Engine {
	return &Engine{
		net:      net,
		handlers: make([]Handler, n),
		clocks:   make([]float64, n),
		timers:   make([]Timers, n),
	}
}

// step runs one handler entry (Init, OnMessage, DeadOnArrival) panic-safely:
// a panic in the handler — or in the backend invariants it trips —
// surfaces as a typed error from Run instead of crashing the process.
func (e *Engine) step(rank int, f func()) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fault.FromPanic(rank, rec, debug.Stack())
		}
	}()
	f()
	return nil
}

// noteCrash kills rank at virtual time t: it executes nothing further and
// every message addressed to it is discarded.
func (e *Engine) noteCrash(rank int, t float64) {
	e.crashed[rank] = true
	e.faults.crashes++
	if e.firstCrash == nil || t < e.firstCrash.At {
		e.firstCrash = &fault.CrashError{Rank: rank, At: t}
	}
	if e.tr != nil {
		at := e.clocks[rank]
		if t > at {
			at = t
		}
		e.tr.add(rank, Event{Kind: EvFault, Cat: CatFault, Peer: -1, Start: at, Key: "crash"})
	}
}

// Run installs one handler per rank, drives the simulation to quiescence,
// and returns per-rank clocks and timers. It fails with a typed fault error
// if a handler panics, an injected crash prevents completion, or any rank
// is not Done at quiescence (a deadlock — the algorithm expected more
// messages), and with a plain error if the event budget is exhausted.
func (e *Engine) Run(newHandler func(rank int) Handler) (*Result, error) {
	n := len(e.handlers)
	e.tr = newTracer(n, e.Opts)
	e.inj = fault.NewInjector(e.Opts.Faults)
	e.crashed = make([]bool, n)
	e.firstCrash = nil
	e.faults = faultTally{}
	failed, stalled := true, false
	defer func() { publishRun("des", e.timers, e.tr, e.faults, failed, stalled) }()
	ctxs := make([]Ctx, n)
	for r := 0; r < n; r++ {
		e.handlers[r] = newHandler(r)
		ctxs[r] = Ctx{rank: r, b: e}
	}
	for r := 0; r < n; r++ {
		if t, ok := e.inj.CrashTime(r); ok && t <= 0 {
			e.noteCrash(r, t)
			continue
		}
		if err := e.step(r, func() { e.handlers[r].Init(&ctxs[r]) }); err != nil {
			return nil, err
		}
	}
	maxEvents := e.MaxEvents
	if maxEvents == 0 {
		maxEvents = 500_000_000
	}
	for len(e.queue) > 0 {
		if e.delivered++; e.delivered > maxEvents {
			return nil, fmt.Errorf("runtime: event budget %d exhausted", maxEvents)
		}
		ev := e.queue.pop()
		r := ev.msg.Dst
		if e.crashed[r] {
			continue // the payload is lost with the rank
		}
		if t, ok := e.inj.CrashTime(r); ok && ev.time >= t {
			e.noteCrash(r, t)
			continue
		}
		dead := false
		if tg := e.Opts.ElasticTag; tg != 0 {
			if ev.msg.Tag == tg {
				// Elastic deadline ticks are timer pops, not dependencies: one
				// that outlived its purpose (the rank already closed that phase,
				// or finished outright) is discarded undelivered, so a trailing
				// tick can never bump a finished rank's clock toward the deadline
				// and inflate the makespan.
				if el, ok := e.handlers[r].(ElasticTicker); !ok || !el.TickLive(ev.msg.Data) {
					continue
				}
			} else if dl, ok := e.handlers[r].(DeadLetterer); ok {
				// A payload for a phase the rank forcibly closed is delivered
				// (the deferral bookkeeping stays uniform) but charged no wait:
				// the rank polls past it rather than blocking on it. The
				// classification is handler code, so a protocol bug it trips
				// (an unknown tag) fails the run like one in OnMessage.
				if err := e.step(r, func() { dead = dl.DeadOnArrival(ev.msg) }); err != nil {
					return nil, err
				}
			}
		}
		if wait := ev.time - e.clocks[r]; !dead && wait > 0 {
			e.timers[r].ByCat[ev.msg.Cat] += wait
			e.timers[r].Waits++
			e.timers[r].WaitSeconds += wait
			if e.tr != nil {
				e.tr.add(r, Event{
					Kind: EvWait, Cat: ev.msg.Cat, Tag: ev.msg.Tag,
					Peer: ev.msg.Src, Bytes: ev.msg.Bytes, MsgID: ev.msg.id,
					Start: e.clocks[r], Dur: wait, Arrive: ev.time,
				})
			}
			e.clocks[r] = ev.time
		}
		if e.tr != nil {
			e.tr.add(r, Event{
				Kind: EvRecv, Cat: ev.msg.Cat, Tag: ev.msg.Tag,
				Peer: ev.msg.Src, Bytes: ev.msg.Bytes, MsgID: ev.msg.id,
				Start: e.clocks[r], Dur: ev.recvOver, Arrive: ev.time,
			})
		}
		if ev.recvOver > 0 && !dead {
			e.timers[r].ByCat[ev.msg.Cat] += ev.recvOver
			e.clocks[r] += ev.recvOver
		}
		if err := e.step(r, func() { e.handlers[r].OnMessage(&ctxs[r], ev.msg) }); err != nil {
			return nil, err
		}
	}
	if e.firstCrash != nil {
		return e.partialResult(), e.firstCrash
	}
	if stuck := e.stuckRank(); stuck >= 0 {
		stalled = true
		peer, tag, ok := e.inj.SuspectFor(stuck)
		if !ok {
			peer, tag = -1, -1
		}
		done, total := progressOf(e.handlers[stuck])
		return e.partialResult(), &fault.StallError{
			Rank: stuck, Peer: peer, Tag: tag,
			State: waitState(e.handlers[stuck]), Virtual: true,
			Done: done, Total: total,
		}
	}
	failed = false
	res := &Result{
		Clocks: append([]float64(nil), e.clocks...),
		Timers: make([]Timers, n),
	}
	copy(res.Timers, e.timers)
	if e.tr != nil {
		res.Trace = e.tr.snapshot()
	}
	return res, nil
}

// partialResult snapshots the clocks, timers, and armed trace at the point
// a run failed with a typed fault (crash, stall) — the events leading up to
// a failure are exactly what a flight recorder wants. It returns nil when
// tracing was off, so an untraced failed run keeps the plain nil-result
// convention; a non-nil result alongside an error is trace salvage, not a
// completed run.
func (e *Engine) partialResult() *Result {
	if e.tr == nil {
		return nil
	}
	res := &Result{
		Clocks: append([]float64(nil), e.clocks...),
		Timers: make([]Timers, len(e.timers)),
		Trace:  e.tr.snapshot(),
	}
	copy(res.Timers, e.timers)
	return res
}

// stuckRank returns a rank that is not Done at quiescence, preferring one
// whose stall a dropped message explains; -1 when every rank finished.
func (e *Engine) stuckRank() int {
	stuck := -1
	for r := range e.handlers {
		if e.crashed[r] || e.handlers[r].Done() {
			continue
		}
		if stuck < 0 {
			stuck = r
		}
		if _, _, ok := e.inj.SuspectFor(r); ok {
			return r
		}
	}
	return stuck
}

func (e *Engine) send(src int, m Msg) {
	if m.Dst < 0 || m.Dst >= len(e.handlers) {
		panic(&fault.ProtocolError{Rank: src, Tag: m.Tag,
			Msg: fmt.Sprintf("send to rank %d of %d", m.Dst, len(e.handlers))})
	}
	over, lat, recvOver := e.net.Cost(src, m.Dst, m.Bytes)
	e.timers[src].MsgsSent[m.Cat]++
	e.timers[src].BytesSent[m.Cat] += m.Bytes
	if e.tr != nil {
		e.msgID++
		m.id = e.msgID
		e.tr.add(src, Event{
			Kind: EvSend, Cat: m.Cat, Tag: m.Tag, Peer: m.Dst,
			Bytes: m.Bytes, MsgID: m.id, Start: e.clocks[src], Dur: over,
		})
	}
	e.timers[src].ByCat[m.Cat] += over
	e.clocks[src] += over
	if e.inj.Drop(src, m.Dst, m.Tag, e.clocks[src]) {
		e.faults.drops++
		if e.tr != nil {
			e.tr.add(src, Event{
				Kind: EvFault, Cat: CatFault, Tag: m.Tag, Peer: m.Dst,
				MsgID: m.id, Start: e.clocks[src], Key: "drop",
			})
		}
		return
	}
	if d := e.inj.Delay() + e.inj.NetDelay(src); d > 0 {
		e.faults.delays++
		lat += d
		if e.tr != nil {
			// Zero-duration stamp: the extra latency rides the message edge
			// (visible as slack/latency in the analysis), not the sender's
			// clock. Arrive holds the injected extra seconds.
			e.tr.add(src, Event{
				Kind: EvFault, Cat: CatFault, Tag: m.Tag, Peer: m.Dst,
				MsgID: m.id, Start: e.clocks[src], Arrive: d, Key: "delay",
			})
		}
	}
	e.pushRecv(e.clocks[src]+lat, recvOver, m)
}

func (e *Engine) sendAfter(src int, delay float64, m Msg) {
	if m.Dst < 0 || m.Dst >= len(e.handlers) {
		panic(&fault.ProtocolError{Rank: src, Tag: m.Tag,
			Msg: fmt.Sprintf("sendAfter to rank %d of %d", m.Dst, len(e.handlers))})
	}
	if delay < 0 {
		panic(&fault.ProtocolError{Rank: src, Tag: m.Tag, Msg: "negative sendAfter delay"})
	}
	if m.Dst != src {
		e.timers[src].MsgsSent[m.Cat]++
		e.timers[src].BytesSent[m.Cat] += m.Bytes
	}
	if e.tr != nil {
		// A zero-duration send at schedule time keeps the dependency chain
		// connected: the modeled put cost shows up as the latency edge.
		e.msgID++
		m.id = e.msgID
		e.tr.add(src, Event{
			Kind: EvSend, Cat: m.Cat, Tag: m.Tag, Peer: m.Dst,
			Bytes: m.Bytes, MsgID: m.id, Start: e.clocks[src],
		})
	}
	if m.Dst != src && e.inj.Drop(src, m.Dst, m.Tag, e.clocks[src]) {
		e.faults.drops++
		if e.tr != nil {
			e.tr.add(src, Event{
				Kind: EvFault, Cat: CatFault, Tag: m.Tag, Peer: m.Dst,
				MsgID: m.id, Start: e.clocks[src], Key: "drop",
			})
		}
		return
	}
	if m.Dst != src {
		if d := e.inj.Delay() + e.inj.NetDelay(src); d > 0 {
			e.faults.delays++
			delay += d
			if e.tr != nil {
				e.tr.add(src, Event{
					Kind: EvFault, Cat: CatFault, Tag: m.Tag, Peer: m.Dst,
					MsgID: m.id, Start: e.clocks[src], Arrive: d, Key: "delay",
				})
			}
		}
	}
	e.push(e.clocks[src]+delay, m)
}

func (e *Engine) after(src int, delay float64, tag int, data any) {
	if delay < 0 {
		panic(&fault.ProtocolError{Rank: src, Tag: tag, Msg: "negative After delay"})
	}
	// A straggling rank's self-scheduled work (the GPU model's task
	// completions) finishes late too. Elastic deadline ticks are exempt:
	// they model an absolute timeout, and inflating the straggler's own
	// deadlines would hand the slowest rank the loosest staleness bound.
	if f := e.inj.StragglerFactor(src); f > 1 && (e.Opts.ElasticTag == 0 || tag != e.Opts.ElasticTag) {
		delay *= f
	}
	m := Msg{Src: src, Dst: src, Tag: tag, Cat: CatFP, Data: data}
	if e.tr != nil {
		// Same trick as sendAfter: the GPU model's task delay becomes a
		// latency edge from this zero-duration self-send.
		e.msgID++
		m.id = e.msgID
		e.tr.add(src, Event{
			Kind: EvSend, Cat: m.Cat, Tag: m.Tag, Peer: src,
			MsgID: m.id, Start: e.clocks[src],
		})
	}
	e.push(e.clocks[src]+delay, m)
}

func (e *Engine) push(t float64, m Msg) { e.pushRecv(t, 0, m) }

func (e *Engine) pushRecv(t, recvOver float64, m Msg) {
	e.seq++
	e.queue.push(event{time: t, seq: e.seq, recvOver: recvOver, msg: m})
}

func (e *Engine) compute(rank, tag int, seconds float64, f func()) {
	if seconds < 0 {
		panic(&fault.ProtocolError{Rank: rank, Tag: tag, Msg: "negative compute time"})
	}
	if e.tr != nil {
		e.tr.add(rank, Event{
			Kind: EvCompute, Cat: CatFP, Tag: tag, Peer: -1,
			Start: e.clocks[rank], Dur: seconds,
		})
	}
	e.timers[rank].ByCat[CatFP] += seconds
	e.clocks[rank] += seconds
	e.straggle(rank, seconds)
	if f != nil {
		f()
	}
}

// straggle charges the injected slowdown of a straggler rank after a span
// of modeled seconds: the extra time is attributed to CatFault so the
// breakdowns show exactly what the fault cost.
func (e *Engine) straggle(rank int, seconds float64) {
	f := e.inj.StragglerFactor(rank)
	if f <= 1 || seconds <= 0 {
		return
	}
	extra := seconds * (f - 1)
	e.faults.straggles++
	if e.tr != nil {
		e.tr.add(rank, Event{
			Kind: EvFault, Cat: CatFault, Peer: -1,
			Start: e.clocks[rank], Dur: extra, Key: "straggle",
		})
	}
	e.timers[rank].ByCat[CatFault] += extra
	e.clocks[rank] += extra
}

// span records a trace-only level-sweep annotation; it never advances the
// clock or schedules events, so tracing on/off cannot change the run.
func (e *Engine) span(rank, tag int, start, dur float64) {
	if e.tr != nil {
		e.tr.add(rank, Event{
			Kind: EvSweep, Cat: CatFP, Tag: tag, Peer: -1,
			Start: start, Dur: dur,
		})
	}
}

func (e *Engine) elapse(rank int, cat Category, seconds float64) {
	if seconds < 0 {
		panic(&fault.ProtocolError{Rank: rank, Msg: "negative elapse time"})
	}
	if e.tr != nil {
		e.tr.add(rank, Event{
			Kind: EvElapse, Cat: cat, Peer: -1,
			Start: e.clocks[rank], Dur: seconds,
		})
	}
	e.timers[rank].ByCat[cat] += seconds
	e.clocks[rank] += seconds
	e.straggle(rank, seconds)
}

func (e *Engine) now(rank int) float64 { return e.clocks[rank] }

func (e *Engine) mark(rank int, key string) {
	if e.timers[rank].Marks == nil {
		e.timers[rank].Marks = make(map[string]float64)
	}
	e.timers[rank].Marks[key] = e.clocks[rank]
	if e.tr != nil {
		e.tr.add(rank, Event{Kind: EvMark, Peer: -1, Start: e.clocks[rank], Key: key})
	}
}

func (e *Engine) isVirtual() bool { return true }

func (e *Engine) traced() bool { return e.tr != nil }

package runtime

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sptrsv/internal/fault"
)

// Pool is the real-parallelism backend: one goroutine per rank, unbounded
// in-memory inboxes, wall-clock timing. It runs the same handlers as the
// Engine, providing true shared-memory parallel execution for the examples
// and the testing.B wall-clock benchmarks.
//
// Wait-time attribution rule: the wall-clock time a rank spends blocked on
// its inbox is charged to the category of the message that ends the wait —
// including the wait before the first message of a phase. This matches the
// Engine, which charges a rank's virtual idle gap to the category of the
// event that wakes it, so the per-category breakdowns of the two backends
// are directly comparable: ByCat[c] answers "how long did ranks sit waiting
// for category-c traffic", not "what was the rank doing before it blocked".
//
// Wait-count rule: Timers.Waits counts the receives that blocked, as the
// Engine counts the deliveries that found the rank idle. A rank takes its
// whole inbox in one lock acquisition and works through that batch before
// it receives again, so it can block at most once per batch; messages that
// were already queued end no wait and add nothing to Waits or WaitSeconds.
//
// Compute-time attribution rule: ByCat[CatFP] is derived once per rank, when
// the rank exits (on every exit path, failed runs included), as the rank's
// clock minus its WaitSeconds minus its ByCat[CatFault]: everything the rank
// did that was neither blocking on its inbox nor an injected fault. Compute
// calls are not timed one by one — the algorithms run their kernels before
// calling Compute with a nil closure, so a per-call bracket measures nothing
// and costs two clock reads per task. Only a traced run brackets each
// Compute, to record its EvCompute span; the derivation is the same either
// way.
//
// Clock-read rule: untraced and fault-free, a rank reads the clock at start,
// at exit and around a receive that actually blocks — one pair per batch at
// most, none when its inbox is already non-empty — never per task or per
// message. Only a run that needs a per-message time reads the clock once
// per message: a traced run (the EvRecv stamp), a rank with a planned crash
// time, and a straggler (factor > 1, which times each activation).
//
// A Pool value holds only configuration; every Run builds its own state, so
// concurrent Run calls on one Pool are independent.
type Pool struct {
	// Timeout aborts a run that stops making progress (a handler waiting
	// for a message that never comes). Zero means 60s. Options.StallTimeout
	// arms the finer-grained per-rank stall watchdog on top of it.
	Timeout time.Duration
	// Opts enables optional instrumentation (event tracing) with the same
	// schema as the Engine, on the wall clock instead of the virtual one,
	// plus fault injection and the stall watchdog.
	Opts Options
}

// inbox is one rank's unbounded FIFO. Senders append to queue under mu;
// the receiving rank takes the whole queue in one lock acquisition (take)
// and leaves its drained batch, cleared, as the next queue, so two buffers
// alternate and stop growing once they fit the largest batch.
type inbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	queue  []Msg
	closed bool

	// batch is the receiver's current batch and next its first unconsumed
	// message; only the receiving rank's goroutine touches them while the
	// run is live. Every slot of queue and batch past its length is zero,
	// so a cleared buffer pins no Msg.Data.
	batch []Msg
	next  int
	// bufs is the recycled pair the buffers came from; retire hands them
	// back through it.
	bufs *msgBufs
}

// msgBufs is an inbox's buffer pair. Buffers are recycled across runs, not
// inboxes: a delayed send or elastic tick can still put into an inbox after
// its run ended, and must find it closed rather than reopened by a later run.
type msgBufs struct{ queue, batch []Msg }

var inboxBufs = sync.Pool{New: func() any { return new(msgBufs) }}

func (b *inbox) init() {
	b.cond.L = &b.mu
	b.bufs = inboxBufs.Get().(*msgBufs)
	b.queue, b.batch = b.bufs.queue, b.bufs.batch
}

// put enqueues m; once the inbox is closed (the run aborted or ended)
// messages are dropped, so late senders — including injected-delay timers
// firing after an abort — cannot resurrect a dead run.
func (b *inbox) put(m Msg) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.cond.Signal()
}

// take replaces the drained batch with every queued message, in one lock
// acquisition. When the queue is empty it blocks until a message arrives or
// the inbox is closed, publishing the instant it started blocking in
// blocked (for the stall watchdog) and returning it as t0; t0 is zero when
// it did not block. After a close the remaining queue still drains, so
// ranks finish cleanly when they can; ok is false once nothing is left.
func (b *inbox) take(blocked *atomic.Int64) (t0 time.Time, ok bool) {
	clear(b.batch)
	spare := b.batch[:0]
	b.mu.Lock()
	if len(b.queue) == 0 && !b.closed {
		t0 = time.Now()
		blocked.Store(t0.UnixNano())
		for len(b.queue) == 0 && !b.closed {
			b.cond.Wait()
		}
		blocked.Store(0)
	}
	b.batch, b.queue = b.queue, spare
	b.mu.Unlock()
	b.next = 0
	return t0, len(b.batch) > 0
}

// pop returns the next message of the current batch; the caller checks
// that one is left.
func (b *inbox) pop() Msg {
	m := b.batch[b.next]
	b.next++
	return m
}

func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// pending counts the messages the receiver never consumed: those still
// queued and those left in its last batch. The batch part is read only
// after the receiving goroutine has exited.
func (b *inbox) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue) + len(b.batch) - b.next
}

// retire closes the inbox for good and returns its buffers, cleared, to
// the pool. It runs after every rank goroutine of the run has exited.
func (b *inbox) retire() {
	b.mu.Lock()
	b.closed = true
	q := b.queue
	b.queue = nil
	b.mu.Unlock()
	clear(q)
	clear(b.batch)
	b.bufs.queue, b.bufs.batch = q[:0], b.batch[:0]
	inboxBufs.Put(b.bufs)
	b.batch, b.next, b.bufs = nil, 0, nil
}

// stallReport is one rank's account of being stuck: either the watchdog's
// observation or the rank's own after it was woken by the abort.
type stallReport struct {
	rank   int
	waited time.Duration
	state  string
	// done/total is the rank's solve progress (runtime.Progresser) at the
	// stall, zeros when the handler reports none.
	done, total int
}

type poolShared struct {
	start   time.Time
	inboxes []inbox
	timers  []Timers
	clocks  []float64
	// tr is nil unless tracing: each rank goroutine writes only its own
	// ring, so rings need no locking; msgID is shared and atomic.
	tr    *tracer
	msgID atomic.Int64

	inj *fault.Injector
	// elasticTag mirrors Options.ElasticTag: nonzero enables wall-clock
	// Ctx.After for that tag and the stray-message exemption.
	elasticTag int

	// failMu guards failErr, the first failure of the run (recovered panic
	// or protocol violation); later failures are consequences of the abort
	// it triggers and are discarded.
	failMu  sync.Mutex
	failErr error
	// aborted is set before the inboxes are closed, letting woken ranks
	// tell an abort (expected: record a stall report) from a spontaneous
	// close (a protocol bug).
	aborted atomic.Bool

	// blockedSince[r] is the UnixNano instant rank r entered a blocking
	// receive (0 while running); rankDone[r] is set when r's handler
	// reported Done. The watchdog reads only these atomics — it never
	// touches handler state across goroutines.
	blockedSince []atomic.Int64
	rankDone     []atomic.Bool
	stallFired   atomic.Bool

	stallMu sync.Mutex
	wd      *stallReport // the watchdog's observation when it fired
	stalls  []stallReport

	crashMu sync.Mutex
	crashes []fault.CrashError

	// Injected-fault tallies; atomics because rank goroutines fire them
	// concurrently. Folded into a faultTally when the run is published.
	ftDrops, ftDelays, ftStraggles, ftCrashes atomic.Int64
}

func (s *poolShared) tally() faultTally {
	return faultTally{
		drops:     int(s.ftDrops.Load()),
		delays:    int(s.ftDelays.Load()),
		straggles: int(s.ftStraggles.Load()),
		crashes:   int(s.ftCrashes.Load()),
	}
}

// fail records the run's first failure and aborts everyone else.
func (s *poolShared) fail(err error) {
	s.failMu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.failMu.Unlock()
	s.abort()
}

func (s *poolShared) failure() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}

// abort wakes every rank by closing the inboxes; queued messages still
// drain, new ones are dropped.
func (s *poolShared) abort() {
	s.aborted.Store(true)
	for i := range s.inboxes {
		s.inboxes[i].close()
	}
}

func (s *poolShared) noteCrash(rank int, at float64) {
	s.ftCrashes.Add(1)
	s.crashMu.Lock()
	s.crashes = append(s.crashes, fault.CrashError{Rank: rank, At: at})
	s.crashMu.Unlock()
	if s.tr != nil {
		s.tr.add(rank, Event{
			Kind: EvFault, Cat: CatFault, Peer: -1,
			Start: time.Since(s.start).Seconds(), Key: "crash",
		})
	}
}

func (s *poolShared) noteStall(rep stallReport) {
	s.stallMu.Lock()
	s.stalls = append(s.stalls, rep)
	s.stallMu.Unlock()
}

// crashError returns the earliest injected crash, nil when none fired.
func (s *poolShared) crashError() error {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	if len(s.crashes) == 0 {
		return nil
	}
	first := s.crashes[0]
	for _, c := range s.crashes[1:] {
		if c.At < first.At {
			first = c
		}
	}
	return &first
}

// stallError builds the StallError reported after the watchdog fired,
// preferring the stalled rank a dropped message explains, then the rank the
// watchdog observed (whose self-report carries the handler state), then the
// longest-waiting self-reporter.
func (s *poolShared) stallError(deadline time.Duration) error {
	s.stallMu.Lock()
	defer s.stallMu.Unlock()
	var best *stallReport
	for i := range s.stalls {
		if _, _, ok := s.inj.SuspectFor(s.stalls[i].rank); ok {
			best = &s.stalls[i]
			break
		}
	}
	if best == nil && s.wd != nil {
		for i := range s.stalls {
			if s.stalls[i].rank == s.wd.rank {
				best = &s.stalls[i]
				break
			}
		}
	}
	if best == nil {
		for i := range s.stalls {
			if best == nil || s.stalls[i].waited > best.waited {
				best = &s.stalls[i]
			}
		}
	}
	if best == nil {
		best = s.wd
	}
	if best == nil {
		best = &stallReport{rank: -1}
	}
	peer, tag, ok := s.inj.SuspectFor(best.rank)
	if !ok {
		peer, tag = -1, -1
	}
	return &fault.StallError{
		Rank: best.rank, Peer: peer, Tag: tag,
		Waited: best.waited, Deadline: deadline, State: best.state,
		Done: best.done, Total: best.total,
	}
}

// poolCtx adapts one rank's view of the pool to the backend interface.
type poolCtx struct {
	s    *poolShared
	rank int
}

func (p *poolCtx) send(src int, m Msg) {
	if m.Dst < 0 || m.Dst >= len(p.s.inboxes) {
		panic(&fault.ProtocolError{Rank: src, Tag: m.Tag,
			Msg: fmt.Sprintf("send to rank %d of %d", m.Dst, len(p.s.inboxes))})
	}
	p.s.timers[src].MsgsSent[m.Cat]++
	p.s.timers[src].BytesSent[m.Cat] += m.Bytes
	if p.s.tr != nil {
		m.id = p.s.msgID.Add(1)
		m.at = time.Since(p.s.start).Seconds()
		p.s.tr.add(src, Event{
			Kind: EvSend, Cat: m.Cat, Tag: m.Tag, Peer: m.Dst,
			Bytes: m.Bytes, MsgID: m.id, Start: m.at,
		})
	}
	if p.s.inj.Active() && p.inject(src, m) {
		return
	}
	p.s.inboxes[m.Dst].put(m)
}

// inject applies the fault plan to one outgoing message: it reports true
// when the message was dropped or handed to a delay timer, false when it
// should be delivered now.
func (p *poolCtx) inject(src int, m Msg) bool {
	now := time.Since(p.s.start).Seconds()
	if p.s.inj.Drop(src, m.Dst, m.Tag, now) {
		p.s.ftDrops.Add(1)
		if p.s.tr != nil {
			p.s.tr.add(src, Event{
				Kind: EvFault, Cat: CatFault, Tag: m.Tag, Peer: m.Dst,
				MsgID: m.id, Start: now, Key: "drop",
			})
		}
		return true
	}
	if d := p.s.inj.Delay() + p.s.inj.NetDelay(src); d > 0 {
		p.s.ftDelays.Add(1)
		if p.s.tr != nil {
			// Traced on the sender at send time: the timer goroutine below
			// must not touch the sender's ring (rings are single-writer).
			p.s.tr.add(src, Event{
				Kind: EvFault, Cat: CatFault, Tag: m.Tag, Peer: m.Dst,
				MsgID: m.id, Start: now, Arrive: d, Key: "delay",
			})
		}
		dst := &p.s.inboxes[m.Dst]
		time.AfterFunc(time.Duration(d*float64(time.Second)), func() { dst.put(m) })
		return true
	}
	return false
}

// after implements elastic deadline ticks on the wall clock: the delay is
// real seconds and the pop is a self-message into the rank's own inbox (a
// pop landing after an abort or after the rank finished is dropped or
// strands harmlessly — the elastic stray-check exemption covers it). Any
// other tag keeps the historical behavior: self-scheduling models virtual
// time and requires the Engine.
func (p *poolCtx) after(src int, delay float64, tag int, data any) {
	if et := p.s.elasticTag; et == 0 || tag != et {
		panic(&fault.ProtocolError{Rank: p.rank,
			Msg: "Ctx.After requires the simulation backend (Engine)"})
	}
	m := Msg{Src: src, Dst: src, Tag: tag, Cat: CatFP, Data: data}
	dst := &p.s.inboxes[src]
	if delay <= 0 {
		dst.put(m)
		return
	}
	time.AfterFunc(time.Duration(delay*float64(time.Second)), func() { dst.put(m) })
}

func (p *poolCtx) sendAfter(int, float64, Msg) {
	panic(&fault.ProtocolError{Rank: p.rank,
		Msg: "Ctx.SendAfter requires the simulation backend (Engine)"})
}

// compute runs f. It charges no time (see the compute-time attribution rule
// on Pool) and reads the clock only to record the EvCompute span of a
// traced run.
func (p *poolCtx) compute(rank, tag int, _ float64, f func()) {
	if p.s.tr == nil {
		if f != nil {
			f()
		}
		return
	}
	t0 := time.Now()
	if f != nil {
		f()
	}
	p.s.tr.add(rank, Event{
		Kind: EvCompute, Cat: CatFP, Tag: tag, Peer: -1,
		Start: t0.Sub(p.s.start).Seconds(), Dur: time.Since(t0).Seconds(),
	})
}

// straggle sleeps off a straggler rank's slowdown after one activation (an
// Init or OnMessage call) that began at a0: (fac−1) × the activation's busy
// time, charged to CatFault. The sleep is real, so downstream ranks observe
// the late arrivals on the wall clock. A healthy rank (fac ≤ 1) returns
// without reading the clock.
func (s *poolShared) straggle(rank int, fac float64, a0 time.Time) {
	if fac <= 1 {
		return
	}
	busy := time.Since(a0).Seconds()
	if busy <= 0 {
		return
	}
	extra := busy * (fac - 1)
	s.ftStraggles.Add(1)
	if s.tr != nil {
		s.tr.add(rank, Event{
			Kind: EvFault, Cat: CatFault, Peer: -1,
			Start: time.Since(s.start).Seconds(), Dur: extra, Key: "straggle",
		})
	}
	s.timers[rank].ByCat[CatFault] += extra
	time.Sleep(time.Duration(extra * float64(time.Second)))
}

// settleFP derives the rank's compute time once, at exit: the part of its
// clock up to end (seconds since the run started) that was neither a
// blocking wait nor an injected fault. end < 0 marks a rank that never ran.
func (s *poolShared) settleFP(rank int, end float64) {
	t := &s.timers[rank]
	if fp := end - t.WaitSeconds - t.ByCat[CatFault]; fp > 0 {
		t.ByCat[CatFP] += fp
	}
}

// span records a trace-only level-sweep annotation on the wall clock.
func (p *poolCtx) span(rank, tag int, start, dur float64) {
	if p.s.tr != nil {
		p.s.tr.add(rank, Event{
			Kind: EvSweep, Cat: CatFP, Tag: tag, Peer: -1,
			Start: start, Dur: dur,
		})
	}
}

func (p *poolCtx) elapse(int, Category, float64) {} // real time flows on its own

func (p *poolCtx) now(int) float64 { return time.Since(p.s.start).Seconds() }

func (p *poolCtx) mark(rank int, key string) {
	if p.s.timers[rank].Marks == nil {
		p.s.timers[rank].Marks = make(map[string]float64)
	}
	now := p.now(rank)
	p.s.timers[rank].Marks[key] = now
	if p.s.tr != nil {
		p.s.tr.add(rank, Event{Kind: EvMark, Peer: -1, Start: now, Key: key})
	}
}

func (p *poolCtx) isVirtual() bool { return false }

func (p *poolCtx) traced() bool { return p.s.tr != nil }

// Run executes one handler per rank until every handler reports Done. It
// returns typed fault errors for failures the robustness layer diagnoses —
// a recovered handler panic (fault.PanicError / fault.ProtocolError), an
// injected rank crash (fault.CrashError), a stall caught by the watchdog
// (fault.StallError when Options.StallTimeout is set) — and plain errors
// for a whole-run timeout or messages left queued for finished ranks (a
// protocol bug: the algorithms know their exact message counts; the check
// is skipped under fault injection, where drops legitimately strand
// messages).
func (p *Pool) Run(n int, newHandler func(rank int) Handler) (*Result, error) {
	timeout := p.Timeout
	if timeout == 0 {
		timeout = 60 * time.Second
	}
	s := &poolShared{
		start:        time.Now(),
		inboxes:      make([]inbox, n),
		timers:       make([]Timers, n),
		clocks:       make([]float64, n),
		tr:           newTracer(n, p.Opts),
		inj:          fault.NewInjector(p.Opts.Faults),
		elasticTag:   p.Opts.ElasticTag,
		blockedSince: make([]atomic.Int64, n),
		rankDone:     make([]atomic.Bool, n),
	}
	for i := range s.inboxes {
		s.inboxes[i].init()
	}
	defer func() {
		for i := range s.inboxes {
			s.inboxes[i].retire()
		}
	}()
	// Published once the run settles; every return path below is reached
	// only after all rank goroutines have exited, so the timers are quiet.
	failed, stalled := true, false
	defer func() { publishRun("pool", s.timers, s.tr, s.tally(), failed, stalled) }()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// end is when the rank stopped working, in seconds since the
			// run started: its exit, or the start of the receive it
			// stalled or crashed in. It stays negative if the rank never
			// ran.
			end := -1.0
			defer func() {
				if rec := recover(); rec != nil {
					end = time.Since(s.start).Seconds()
					s.fail(fault.FromPanic(rank, rec, debug.Stack()))
				}
				s.settleFP(rank, end)
			}()
			crashT, hasCrash := s.inj.CrashTime(rank)
			if hasCrash && crashT <= 0 {
				s.noteCrash(rank, crashT)
				return
			}
			h := newHandler(rank)
			ctx := &Ctx{rank: rank, b: &poolCtx{s: s, rank: rank}}
			fac := s.inj.StragglerFactor(rank)
			a0 := time.Now() // start of the current Init or OnMessage
			h.Init(ctx)
			s.straggle(rank, fac, a0)
			// perMsg marks a rank that needs each message's receipt time: a
			// trace stamps it, a planned crash is checked against it, and a
			// straggler times the activation it starts. Otherwise the clock
			// is read only around a receive that blocks.
			perMsg := s.tr != nil || hasCrash || fac > 1
			in := &s.inboxes[rank]
			for !h.Done() {
				var t0 time.Time // start of a receive that blocked; zero if none did
				if in.next == len(in.batch) {
					var ok bool
					if t0, ok = in.take(&s.blockedSince[rank]); !ok {
						if t0.IsZero() {
							t0 = time.Now()
						}
						end = t0.Sub(s.start).Seconds()
						if s.aborted.Load() {
							done, total := progressOf(h)
							s.noteStall(stallReport{
								rank: rank, waited: time.Since(t0), state: waitState(h),
								done: done, total: total,
							})
						} else {
							s.fail(&fault.ProtocolError{Rank: rank,
								Msg: "inbox closed while expecting messages"})
						}
						return
					}
				}
				m := in.pop()
				var now time.Time // receipt of m; zero when nothing needs it
				if perMsg || !t0.IsZero() {
					now = time.Now()
				}
				if hasCrash && now.Sub(s.start).Seconds() >= crashT {
					end = now.Sub(s.start).Seconds()
					if !t0.IsZero() {
						end = t0.Sub(s.start).Seconds()
					}
					s.noteCrash(rank, crashT)
					return
				}
				if !t0.IsZero() {
					wait := now.Sub(t0).Seconds()
					s.timers[rank].ByCat[m.Cat] += wait
					s.timers[rank].Waits++
					s.timers[rank].WaitSeconds += wait
					if s.tr != nil && wait > 0 {
						s.tr.add(rank, Event{
							Kind: EvWait, Cat: m.Cat, Tag: m.Tag,
							Peer: m.Src, Bytes: m.Bytes, MsgID: m.id,
							Start: t0.Sub(s.start).Seconds(), Dur: wait, Arrive: m.at,
						})
					}
				}
				if s.tr != nil {
					s.tr.add(rank, Event{
						Kind: EvRecv, Cat: m.Cat, Tag: m.Tag,
						Peer: m.Src, Bytes: m.Bytes, MsgID: m.id,
						Start: now.Sub(s.start).Seconds(), Arrive: m.at,
					})
				}
				h.OnMessage(ctx, m)
				s.straggle(rank, fac, now)
			}
			s.rankDone[rank].Store(true)
			end = time.Since(s.start).Seconds()
			s.clocks[rank] = end
		}(r)
	}
	if deadline := p.Opts.StallTimeout; deadline > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go s.watchdog(deadline, stop)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	// A stopped timer, not time.After: under this module's Go version a
	// time.After timer stays live for the whole timeout after the run.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.abort()
		<-done
		if err := s.failure(); err != nil {
			return s.partialResult(), err
		}
		if err := s.crashError(); err != nil {
			return s.partialResult(), err
		}
		return s.partialResult(), fmt.Errorf("runtime: pool run timed out after %v (deadlock?)", timeout)
	}
	if err := s.failure(); err != nil {
		return s.partialResult(), err
	}
	if err := s.crashError(); err != nil {
		return s.partialResult(), err
	}
	if s.stallFired.Load() {
		stalled = true
		deadline := p.Opts.StallTimeout
		return s.partialResult(), s.stallError(deadline)
	}
	// The stray-message invariant holds only for strict runs without fault
	// injection: drops strand peers' messages, and an elastic forced phase
	// closure strands both late traffic and in-flight deadline ticks.
	if !s.inj.Active() && s.elasticTag == 0 {
		for r := range s.inboxes {
			if pend := s.inboxes[r].pending(); pend != 0 {
				return nil, fmt.Errorf("runtime: %d stray messages for finished rank %d", pend, r)
			}
		}
	}
	failed = false
	res := &Result{Clocks: s.clocks, Timers: s.timers}
	if s.tr != nil {
		res.Trace = s.tr.snapshot()
	}
	return res, nil
}

// partialResult snapshots the timers and armed trace of a failed run (all
// rank goroutines have exited by the time any error return is reached) so
// fault diagnostics can see the events leading up to the failure. Nil when
// tracing was off: a non-nil result alongside an error is trace salvage,
// not a completed run.
func (s *poolShared) partialResult() *Result {
	if s.tr == nil {
		return nil
	}
	res := &Result{
		Clocks: append([]float64(nil), s.clocks...),
		Timers: make([]Timers, len(s.timers)),
		Trace:  s.tr.snapshot(),
	}
	copy(res.Timers, s.timers)
	return res
}

// watchdog periodically scans the per-rank blocked timestamps and aborts
// the run when any rank has been stuck in a receive past the deadline. It
// reads only atomics, so it races with nothing; the stalled ranks describe
// themselves (noteStall) after the abort wakes them.
func (s *poolShared) watchdog(deadline time.Duration, stop <-chan struct{}) {
	period := deadline / 8
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			now := time.Now().UnixNano()
			for r := range s.blockedSince {
				since := s.blockedSince[r].Load()
				if since == 0 || s.rankDone[r].Load() {
					continue
				}
				waited := time.Duration(now - since)
				if waited < deadline {
					continue
				}
				s.stallMu.Lock()
				s.wd = &stallReport{rank: r, waited: waited}
				s.stallMu.Unlock()
				s.stallFired.Store(true)
				s.abort()
				return
			}
		}
	}
}

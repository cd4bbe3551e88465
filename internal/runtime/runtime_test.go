package runtime

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sptrsv/internal/fault"
)

// constNet charges fixed overhead o and latency per byte.
type constNet struct {
	o, alpha, beta float64
}

func (n constNet) Cost(_, _, bytes int) (float64, float64, float64) {
	return n.o, n.alpha + n.beta*float64(bytes), 0
}

// pingpong bounces a counter between ranks 0 and 1 `rounds` times.
type pingpong struct {
	rank, rounds int
	got          int
	peer         int
}

func (p *pingpong) Init(ctx *Ctx) {
	if p.rank == 0 {
		ctx.Send(Msg{Dst: p.peer, Tag: 1, Cat: CatXY, Bytes: 8, Data: 0})
	}
}

func (p *pingpong) OnMessage(ctx *Ctx, m Msg) {
	p.got++
	v := m.Data.(int)
	if v+1 < p.rounds*2 {
		ctx.Send(Msg{Dst: p.peer, Tag: 1, Cat: CatXY, Bytes: 8, Data: v + 1})
	}
}

func (p *pingpong) Done() bool { return p.got >= p.rounds }

func runPingPong(t *testing.T) *Result {
	t.Helper()
	e := NewEngine(2, constNet{o: 1e-6, alpha: 2e-6, beta: 1e-9})
	res, err := e.Run(func(r int) Handler {
		return &pingpong{rank: r, rounds: 5, peer: 1 - r}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEnginePingPongTiming(t *testing.T) {
	res := runPingPong(t)
	// 10 messages total, each costing o + alpha + 8*beta serialized.
	per := 1e-6 + 2e-6 + 8e-9
	want := 10 * per
	if got := res.MaxClock(); got < want*0.999 || got > want*1.001 {
		t.Fatalf("makespan %g, want %g", got, want)
	}
	// All attributed time must be XY.
	if res.MeanCat(CatFP) != 0 || res.MeanCat(CatZ) != 0 {
		t.Fatal("time attributed to wrong categories")
	}
}

func TestEngineDeterminism(t *testing.T) {
	a := runPingPong(t)
	b := runPingPong(t)
	for i := range a.Clocks {
		if a.Clocks[i] != b.Clocks[i] {
			t.Fatalf("non-deterministic clocks: %v vs %v", a.Clocks, b.Clocks)
		}
	}
}

func TestEngineComputeAdvancesClock(t *testing.T) {
	e := NewEngine(1, ZeroNetwork{})
	ran := false
	res, err := e.Run(func(int) Handler {
		return &initOnly{fn: func(ctx *Ctx) {
			ctx.Compute(0.5, func() { ran = true })
			ctx.Elapse(CatZ, 0.25)
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("compute closure not executed")
	}
	if res.Clocks[0] != 0.75 {
		t.Fatalf("clock %g", res.Clocks[0])
	}
	if res.Timers[0].ByCat[CatFP] != 0.5 || res.Timers[0].ByCat[CatZ] != 0.25 {
		t.Fatal("attribution wrong")
	}
	if res.Timers[0].Total() != 0.75 {
		t.Fatal("Total wrong")
	}
}

// initOnly runs a function in Init and is immediately done.
type initOnly struct{ fn func(*Ctx) }

func (h *initOnly) Init(ctx *Ctx)       { h.fn(ctx) }
func (h *initOnly) OnMessage(*Ctx, Msg) {}
func (h *initOnly) Done() bool          { return true }

// afterChain verifies Ctx.After delivers in time order.
type afterChain struct {
	seen []int
	n    int
}

func (h *afterChain) Init(ctx *Ctx) {
	ctx.After(0.3, 3, 3)
	ctx.After(0.1, 1, 1)
	ctx.After(0.2, 2, 2)
}

func (h *afterChain) OnMessage(ctx *Ctx, m Msg) {
	h.seen = append(h.seen, m.Tag)
	h.n++
}

func (h *afterChain) Done() bool { return h.n == 3 }

func TestEngineAfterOrdering(t *testing.T) {
	e := NewEngine(1, ZeroNetwork{})
	var captured *afterChain
	res, err := e.Run(func(int) Handler {
		captured = &afterChain{}
		return captured
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(captured.seen) != 3 || captured.seen[0] != 1 || captured.seen[1] != 2 || captured.seen[2] != 3 {
		t.Fatalf("delivery order %v", captured.seen)
	}
	if res.Clocks[0] < 0.3 {
		t.Fatalf("clock %g did not reach last event", res.Clocks[0])
	}
}

func TestEngineWaitAttribution(t *testing.T) {
	// Rank 1 computes for 1s, then messages rank 0, which has been idle:
	// rank 0's wait must be attributed to the message category (Z).
	e := NewEngine(2, ZeroNetwork{})
	res, err := e.Run(func(r int) Handler {
		if r == 1 {
			return &initOnly{fn: func(ctx *Ctx) {
				ctx.Compute(1.0, nil)
				ctx.Send(Msg{Dst: 0, Tag: 9, Cat: CatZ})
			}}
		}
		return &recvN{n: 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if z := res.Timers[0].ByCat[CatZ]; z < 0.999 || z > 1.001 {
		t.Fatalf("rank 0 Z wait %g, want ~1", z)
	}
}

// recvN runs init (when set), then expects n messages.
type recvN struct {
	n, got int
	init   func(*Ctx)
}

func (h *recvN) Init(ctx *Ctx) {
	if h.init != nil {
		h.init(ctx)
	}
}
func (h *recvN) OnMessage(*Ctx, Msg) { h.got++ }
func (h *recvN) Done() bool          { return h.got >= h.n }

func TestEngineDeadlockDetected(t *testing.T) {
	e := NewEngine(1, ZeroNetwork{})
	_, err := e.Run(func(int) Handler { return &recvN{n: 1} })
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestEngineEventBudget(t *testing.T) {
	e := NewEngine(2, ZeroNetwork{})
	e.MaxEvents = 10
	_, err := e.Run(func(r int) Handler {
		return &pingpong{rank: r, rounds: 1000, peer: 1 - r}
	})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("expected budget error, got %v", err)
	}
}

func TestEngineMarks(t *testing.T) {
	e := NewEngine(1, ZeroNetwork{})
	res, err := e.Run(func(int) Handler {
		return &initOnly{fn: func(ctx *Ctx) {
			ctx.Mark("a")
			ctx.Compute(2, nil)
			ctx.Mark("b")
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	span := res.MarkSpan("a", "b")
	if span[0] != 2 {
		t.Fatalf("span %v", span)
	}
}

func TestPoolPingPong(t *testing.T) {
	p := &Pool{Timeout: 10 * time.Second}
	res, err := p.Run(2, func(r int) Handler {
		return &pingpong{rank: r, rounds: 5, peer: 1 - r}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxClock() <= 0 {
		t.Fatal("no wall time recorded")
	}
}

func TestPoolParallelFanIn(t *testing.T) {
	// 8 workers send to rank 0; rank 0 counts them.
	const n = 9
	var sum atomic.Int64
	p := &Pool{Timeout: 10 * time.Second}
	_, err := p.Run(n, func(r int) Handler {
		if r == 0 {
			return &recvN{n: n - 1}
		}
		return &initOnly{fn: func(ctx *Ctx) {
			ctx.Compute(0, func() { sum.Add(int64(ctx.Rank())) })
			ctx.Send(Msg{Dst: 0, Tag: 1, Cat: CatXY})
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 36 {
		t.Fatalf("sum %d", sum.Load())
	}
}

func TestPoolTimeout(t *testing.T) {
	p := &Pool{Timeout: 200 * time.Millisecond}
	_, err := p.Run(1, func(int) Handler { return &recvN{n: 1} })
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("expected timeout, got %v", err)
	}
}

func TestPoolPanicSurfaced(t *testing.T) {
	p := &Pool{Timeout: 5 * time.Second}
	_, err := p.Run(2, func(r int) Handler {
		if r == 1 {
			return &initOnly{fn: func(*Ctx) { panic("boom") }}
		}
		return &recvN{n: 1}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestPoolStrayMessageDetected(t *testing.T) {
	p := &Pool{Timeout: 5 * time.Second}
	_, err := p.Run(2, func(r int) Handler {
		if r == 1 {
			// Sends to rank 0, which expects nothing and exits immediately.
			return &initOnly{fn: func(ctx *Ctx) {
				time.Sleep(50 * time.Millisecond)
				ctx.Send(Msg{Dst: 0, Tag: 1, Cat: CatXY})
			}}
		}
		return &recvN{n: 0}
	})
	if err == nil || !strings.Contains(err.Error(), "stray") {
		t.Fatalf("expected stray message error, got %v", err)
	}
}

func TestPoolAfterPanics(t *testing.T) {
	p := &Pool{Timeout: 5 * time.Second}
	_, err := p.Run(1, func(int) Handler {
		return &initOnly{fn: func(ctx *Ctx) { ctx.After(1, 0, nil) }}
	})
	if err == nil || !strings.Contains(err.Error(), "Engine") {
		t.Fatalf("expected After panic, got %v", err)
	}
}

func TestVirtualFlag(t *testing.T) {
	e := NewEngine(1, ZeroNetwork{})
	virtual := false
	if _, err := e.Run(func(int) Handler {
		return &initOnly{fn: func(ctx *Ctx) { virtual = ctx.Virtual() }}
	}); err != nil {
		t.Fatal(err)
	}
	if !virtual {
		t.Fatal("Engine should report virtual time")
	}
	p := &Pool{Timeout: 5 * time.Second}
	if _, err := p.Run(1, func(int) Handler {
		return &initOnly{fn: func(ctx *Ctx) { virtual = ctx.Virtual() }}
	}); err != nil {
		t.Fatal(err)
	}
	if virtual {
		t.Fatal("Pool should report real time")
	}
}

func TestCategoryString(t *testing.T) {
	if CatFP.String() != "FP-Operation" || CatXY.String() != "XY-Comm" || CatZ.String() != "Z-Comm" {
		t.Fatal("category names wrong")
	}
}

func TestMessageCounters(t *testing.T) {
	e := NewEngine(2, constNet{o: 1e-6})
	res, err := e.Run(func(r int) Handler {
		return &pingpong{rank: r, rounds: 5, peer: 1 - r}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMsgs() != 10 {
		t.Fatalf("TotalMsgs = %d, want 10", res.TotalMsgs())
	}
	if res.TotalBytes() != 80 {
		t.Fatalf("TotalBytes = %d, want 80", res.TotalBytes())
	}
	if res.CatMsgs(CatXY) != 10 || res.CatMsgs(CatZ) != 0 {
		t.Fatal("per-category counts wrong")
	}
}

func TestPoolWaitAttribution(t *testing.T) {
	// Pins the attribution rule documented in the package comment: inbox
	// wait time — including the wait before a rank's first message — is
	// charged to the category of the message that ends the wait, matching
	// the Engine (see TestEngineWaitAttribution).
	p := &Pool{Timeout: 10 * time.Second}
	res, err := p.Run(2, func(r int) Handler {
		if r == 1 {
			return &initOnly{fn: func(ctx *Ctx) {
				time.Sleep(100 * time.Millisecond)
				ctx.Send(Msg{Dst: 0, Tag: 9, Cat: CatZ})
			}}
		}
		return &recvN{n: 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if z := res.Timers[0].ByCat[CatZ]; z < 0.05 {
		t.Fatalf("rank 0 Z wait %g, want ≥0.05 (wait charged to the arriving message's category)", z)
	}
	if xy := res.Timers[0].ByCat[CatXY]; xy != 0 {
		t.Fatalf("rank 0 XY time %g, want 0 (no XY traffic ended a wait)", xy)
	}
	if fp := res.Timers[0].ByCat[CatFP]; fp > 0.01 {
		t.Fatalf("rank 0 FP time %g, want ~0", fp)
	}
}

func TestPoolComputeTimeDerivedAtExit(t *testing.T) {
	// Pins the compute-time attribution rule documented on Pool: FP time is
	// the rank's clock minus its waits, whether or not the work sat inside
	// a Compute closure, traced or not.
	for _, traced := range []bool{false, true} {
		p := &Pool{Timeout: 10 * time.Second, Opts: Options{Trace: traced}}
		res, err := p.Run(2, func(r int) Handler {
			if r == 1 {
				return &initOnly{fn: func(ctx *Ctx) {
					time.Sleep(40 * time.Millisecond) // work the Compute call only labels
					ctx.ComputeT(3, 0, nil)
					ctx.Send(Msg{Dst: 0, Tag: 9, Cat: CatZ})
				}}
			}
			return &recvN{n: 1}
		})
		if err != nil {
			t.Fatal(err)
		}
		if fp := res.Timers[1].ByCat[CatFP]; fp < 0.035 {
			t.Fatalf("traced=%v: rank 1 FP time %g, want ≥0.035", traced, fp)
		}
		for r := range res.Timers {
			if tot := res.Timers[r].Total(); math.Abs(tot-res.Clocks[r]) > 1e-9 {
				t.Fatalf("traced=%v: rank %d categories sum to %g, clock %g", traced, r, tot, res.Clocks[r])
			}
		}
		if traced != (res.Trace != nil) {
			t.Fatalf("traced=%v but trace present=%v", traced, res.Trace != nil)
		}
	}
}

func TestPoolComputeTimeOnStall(t *testing.T) {
	// A failed run derives FP time too: the salvaged timers of a rank that
	// worked and then stalled show the work, not the stalled wait.
	const deadline = 100 * time.Millisecond
	p := &Pool{Timeout: 30 * time.Second, Opts: Options{Trace: true, StallTimeout: deadline}}
	res, err := p.Run(1, func(int) Handler {
		return &recvN{n: 1, init: func(*Ctx) { time.Sleep(40 * time.Millisecond) }}
	})
	var se *fault.StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected StallError, got %v", err)
	}
	if res == nil {
		t.Fatal("traced stalled run returned no partial result")
	}
	if fp := res.Timers[0].ByCat[CatFP]; fp < 0.035 || fp >= deadline.Seconds() {
		t.Fatalf("stalled rank FP time %g, want ~0.04 (the work, not the stalled wait)", fp)
	}
}

// BenchmarkPoolComputeOff is the runtime layer's cost per task on the
// untraced, fault-free pool: one rank issuing b.N nil-closure ComputeT
// calls, the pattern the algorithms use after running a kernel.
func BenchmarkPoolComputeOff(b *testing.B) {
	p := &Pool{Timeout: time.Minute}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := p.Run(1, func(int) Handler {
		return &initOnly{fn: func(ctx *Ctx) {
			for i := 0; i < b.N; i++ {
				ctx.ComputeT(1, 0, nil)
			}
		}}
	}); err != nil {
		b.Fatal(err)
	}
}

package runtime

import (
	"errors"
	"testing"
	"time"

	"sptrsv/internal/fault"
)

func runPingPongFaults(t *testing.T, plan *fault.Plan) (*Result, error) {
	t.Helper()
	e := NewEngine(2, constNet{o: 1e-6, alpha: 2e-6, beta: 1e-9})
	e.Opts = Options{Faults: plan, Trace: true}
	return e.Run(func(r int) Handler {
		return &pingpong{rank: r, rounds: 5, peer: 1 - r}
	})
}

func TestEngineJitterDeterministic(t *testing.T) {
	plan := &fault.Plan{Seed: 11, Jitter: 1e-5}
	a, err := runPingPongFaults(t, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPingPongFaults(t, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Clocks {
		if a.Clocks[i] != b.Clocks[i] {
			t.Fatalf("same seed, different clocks: %v vs %v", a.Clocks, b.Clocks)
		}
	}
	// The injection must actually perturb timing relative to a clean run.
	clean, err := runPingPongFaults(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxClock() <= clean.MaxClock() {
		t.Fatalf("jittered makespan %g not above clean %g", a.MaxClock(), clean.MaxClock())
	}
	// Delay events are traced as zero-duration fault stamps carrying the
	// injected seconds in Arrive (latency rides the message edge, so the
	// critical-path walker's span-contiguity invariant holds).
	found := false
	for r := range a.Trace.Ranks {
		for _, ev := range a.Trace.Ranks[r] {
			if ev.Kind == EvFault && ev.Key == "delay" {
				found = true
				if ev.Dur != 0 {
					t.Fatalf("delay fault event has Dur %g, want 0", ev.Dur)
				}
				if ev.Arrive <= 0 {
					t.Fatalf("delay fault event carries no extra latency: %+v", ev)
				}
			}
		}
	}
	if !found {
		t.Fatal("no delay fault events traced")
	}
}

func TestEngineStraggler(t *testing.T) {
	run := func(plan *fault.Plan) *Result {
		e := NewEngine(1, ZeroNetwork{})
		e.Opts = Options{Faults: plan, Trace: true}
		res, err := e.Run(func(int) Handler {
			return &initOnly{fn: func(ctx *Ctx) { ctx.Compute(1.0, nil) }}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(&fault.Plan{Straggler: map[int]float64{0: 4}})
	if c := res.Clocks[0]; c < 3.999 || c > 4.001 {
		t.Fatalf("straggled clock %g, want ~4 (factor 4 on 1s compute)", c)
	}
	// The base second stays FP; the 3 extra seconds are charged to CatFault.
	if fp := res.Timers[0].ByCat[CatFP]; fp < 0.999 || fp > 1.001 {
		t.Fatalf("FP time %g, want ~1", fp)
	}
	if f := res.Timers[0].ByCat[CatFault]; f < 2.999 || f > 3.001 {
		t.Fatalf("fault time %g, want ~3", f)
	}
	// Straggle spans are real rank-serial trace spans.
	found := false
	for _, ev := range res.Trace.Ranks[0] {
		if ev.Kind == EvFault && ev.Key == "straggle" && ev.Dur > 2.9 {
			found = true
		}
	}
	if !found {
		t.Fatal("no straggle span traced")
	}
}

func TestEngineDropYieldsStallError(t *testing.T) {
	// Dropping the very first ping deadlocks both ranks; the engine must
	// blame the receiver of the lost message and name the expected peer/tag.
	_, err := runPingPongFaults(t, &fault.Plan{
		Drops: []fault.DropRule{{Src: 0, Dst: 1, Tag: 1, Count: 1}},
	})
	var se *fault.StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected StallError, got %v", err)
	}
	if !se.Virtual {
		t.Fatal("DES stall should be virtual")
	}
	if se.Rank != 1 || se.Peer != 0 || se.Tag != 1 {
		t.Fatalf("stall blames rank %d peer %d tag %d, want rank 1 peer 0 tag 1: %v",
			se.Rank, se.Peer, se.Tag, err)
	}
	if !fault.IsFault(err) {
		t.Fatal("StallError not classified as fault")
	}
}

func TestEngineCrash(t *testing.T) {
	// Crash at t=0: the rank never runs Init, its peer starves.
	_, err := runPingPongFaults(t, &fault.Plan{Crash: map[int]float64{1: 0}})
	var ce *fault.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CrashError, got %v", err)
	}
	if ce.Rank != 1 {
		t.Fatalf("crash blames rank %d, want 1", ce.Rank)
	}

	// Crash mid-run (after a few virtual microseconds of ping-pong): the
	// crash triggers on the first event at or after the injected time.
	_, err = runPingPongFaults(t, &fault.Plan{Crash: map[int]float64{0: 5e-6}})
	if !errors.As(err, &ce) {
		t.Fatalf("expected mid-run CrashError, got %v", err)
	}
	if ce.Rank != 0 || ce.At < 5e-6 {
		t.Fatalf("crash = rank %d at %g, want rank 0 at ≥5e-6", ce.Rank, ce.At)
	}
}

func TestEnginePanicBecomesTypedError(t *testing.T) {
	e := NewEngine(1, ZeroNetwork{})
	_, err := e.Run(func(int) Handler {
		return &initOnly{fn: func(*Ctx) { panic("boom") }}
	})
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected PanicError, got %v", err)
	}
	if pe.Rank != 0 || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error incomplete: %+v", pe)
	}
}

func TestEngineBadDestinationIsProtocolError(t *testing.T) {
	e := NewEngine(1, ZeroNetwork{})
	_, err := e.Run(func(int) Handler {
		return &initOnly{fn: func(ctx *Ctx) { ctx.Send(Msg{Dst: 7, Tag: 1, Cat: CatXY}) }}
	})
	var pe *fault.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("expected ProtocolError, got %v", err)
	}
	if pe.Rank != 0 {
		t.Fatalf("protocol error blames rank %d, want 0", pe.Rank)
	}
}

func TestPoolWatchdog(t *testing.T) {
	// Rank 0 waits forever; the watchdog must fire within a small multiple
	// of the deadline, long before the coarse pool timeout.
	const deadline = 150 * time.Millisecond
	p := &Pool{Timeout: 30 * time.Second, Opts: Options{StallTimeout: deadline}}
	start := time.Now()
	_, err := p.Run(2, func(r int) Handler {
		if r == 1 {
			return &recvN{n: 0} // exits immediately
		}
		return &recvN{n: 1}
	})
	elapsed := time.Since(start)
	var se *fault.StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected StallError, got %v", err)
	}
	if se.Virtual {
		t.Fatal("pool stall should not be virtual")
	}
	if se.Rank != 0 {
		t.Fatalf("stall blames rank %d, want 0", se.Rank)
	}
	if se.Waited < deadline {
		t.Fatalf("reported wait %v below deadline %v", se.Waited, deadline)
	}
	if se.Deadline != deadline {
		t.Fatalf("reported deadline %v, want %v", se.Deadline, deadline)
	}
	if elapsed < deadline {
		t.Fatalf("watchdog fired after %v, before the %v deadline", elapsed, deadline)
	}
	if elapsed > 10*deadline {
		t.Fatalf("watchdog took %v to fire (deadline %v)", elapsed, deadline)
	}
}

func TestPoolDropSuspectNamed(t *testing.T) {
	// The lost message's receiver is identified even though the watchdog
	// may first notice a different blocked rank.
	p := &Pool{
		Timeout: 30 * time.Second,
		Opts: Options{
			StallTimeout: 100 * time.Millisecond,
			Faults:       &fault.Plan{Drops: []fault.DropRule{{Src: 0, Dst: 1, Tag: 1, Count: 1}}},
		},
	}
	_, err := p.Run(2, func(r int) Handler {
		return &pingpong{rank: r, rounds: 5, peer: 1 - r}
	})
	var se *fault.StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected StallError, got %v", err)
	}
	if se.Rank != 1 || se.Peer != 0 || se.Tag != 1 {
		t.Fatalf("stall blames rank %d peer %d tag %d, want rank 1 peer 0 tag 1: %v",
			se.Rank, se.Peer, se.Tag, err)
	}
}

func TestPoolCrash(t *testing.T) {
	p := &Pool{
		Timeout: 30 * time.Second,
		Opts: Options{
			StallTimeout: 100 * time.Millisecond,
			Faults:       &fault.Plan{Crash: map[int]float64{1: 0}},
		},
	}
	_, err := p.Run(2, func(r int) Handler {
		return &pingpong{rank: r, rounds: 5, peer: 1 - r}
	})
	var ce *fault.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CrashError, got %v", err)
	}
	if ce.Rank != 1 {
		t.Fatalf("crash blames rank %d, want 1", ce.Rank)
	}
}

func TestPoolJitterStillCorrect(t *testing.T) {
	// Delayed (AfterFunc) deliveries must not lose or duplicate messages.
	p := &Pool{
		Timeout: 30 * time.Second,
		Opts:    Options{Faults: &fault.Plan{Seed: 3, Jitter: 0.02}},
	}
	var captured [2]*pingpong
	_, err := p.Run(2, func(r int) Handler {
		captured[r] = &pingpong{rank: r, rounds: 5, peer: 1 - r}
		return captured[r]
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, h := range captured {
		if h.got != 5 {
			t.Fatalf("rank %d received %d messages, want 5", r, h.got)
		}
	}
}

func TestPoolStraggler(t *testing.T) {
	// The straggler sleeps off (factor−1) × each activation's busy time, so
	// work counts whether it runs inside a Compute closure or, as in the
	// real algorithms, before a nil-closure Compute that only labels it.
	cases := map[string]func(*Ctx){
		"work in closure": func(ctx *Ctx) {
			ctx.Compute(0, func() { time.Sleep(30 * time.Millisecond) })
		},
		"work before nil closure": func(ctx *Ctx) {
			time.Sleep(30 * time.Millisecond)
			ctx.Compute(0, nil)
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			p := &Pool{
				Timeout: 30 * time.Second,
				Opts:    Options{Faults: &fault.Plan{Straggler: map[int]float64{0: 3}}},
			}
			res, err := p.Run(1, func(int) Handler { return &initOnly{fn: fn} })
			if err != nil {
				t.Fatal(err)
			}
			// 30ms of real work at factor 3 adds ~60ms of injected stall.
			f, fp := res.Timers[0].ByCat[CatFault], res.Timers[0].ByCat[CatFP]
			if f < 0.03 {
				t.Fatalf("injected straggler time %g, want ≥0.03", f)
			}
			// The stall is not compute: FP is the work alone, about half the stall.
			if fp < 0.025 || fp >= f {
				t.Fatalf("FP time %g with %g of stall, want ~0.03 and below the stall", fp, f)
			}
		})
	}
}

func TestFaultTraceNaming(t *testing.T) {
	if CatFault.String() != "Fault" {
		t.Fatalf("CatFault name %q", CatFault.String())
	}
	if EvFault.String() != "fault" {
		t.Fatalf("EvFault name %q", EvFault.String())
	}
}

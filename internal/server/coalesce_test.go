package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/fault"
	"sptrsv/internal/gen"
	"sptrsv/internal/metrics"
	"sptrsv/internal/sparse"
)

// newTestServer builds a Server on a fake clock and a private registry,
// with one handle factored and its default-config solver slot built.
func newTestServer(t *testing.T, mod func(*Options)) (*Server, *FakeClock, *Handle, *solverSlot) {
	t.Helper()
	fc := NewFakeClock()
	opts := Options{
		Ranks:    4,
		MaxQueue: 64,
		MaxBatch: 4,
		MaxWait:  10 * time.Millisecond,
		Clock:    fc,
		Registry: metrics.NewRegistry(),
	}
	if mod != nil {
		mod(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sys, err := core.Factorize(gen.S2D9pt(24, 24, 31), core.FactorOptions{TreeDepth: 3, MaxSupernode: 8})
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	h, _, _ := s.handles.put(sys, "test", fc.Now())
	cfg, err := s.defaultConfig(h)
	if err != nil {
		t.Fatalf("defaultConfig: %v", err)
	}
	slot, _, err := s.solverFor(h, cfg)
	if err != nil {
		t.Fatalf("solverFor: %v", err)
	}
	return s, fc, h, slot
}

// rhs builds a deterministic n×1 right-hand side, distinct per seed.
func rhs(n int, seed int) *sparse.Panel {
	b := sparse.NewPanel(n, 1)
	col := b.Col(0)
	for i := range col {
		col[i] = 1 + float64((i*7+seed*13)%11) - 0.25*float64(seed)
	}
	return b
}

// submit admits one request (failing the test on shed) and hands it to the
// slot's coalescer.
func submit(t *testing.T, s *Server, slot *solverSlot, b *sparse.Panel, plan *fault.Plan) *request {
	t.Helper()
	if v, _ := s.admit.admit("test"); v != admitOK {
		t.Fatalf("admit = %v, want admitOK", v)
	}
	r := &request{b: b, faults: plan, enq: s.clock.Now(), done: make(chan result, 1)}
	slot.coal.add(r)
	return r
}

func TestCoalesceTimerFlushMergesRequests(t *testing.T) {
	s, fc, h, slot := newTestServer(t, nil)
	n := h.N

	reqs := make([]*request, 3)
	for i := range reqs {
		reqs[i] = submit(t, s, slot, rhs(n, i), nil)
	}
	if got := s.admit.depth(); got != 3 {
		t.Fatalf("queue depth = %d before flush, want 3", got)
	}

	// Nothing may flush before max-wait: the batch is still accumulating.
	fc.Advance(9 * time.Millisecond)
	select {
	case <-reqs[0].done:
		t.Fatal("request completed before the max-wait deadline")
	default:
	}

	fc.Advance(time.Millisecond) // reaches the 10ms deadline → flush
	for i, r := range reqs {
		res := <-r.done
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		if res.width != 3 || res.panelWidth != 3 {
			t.Fatalf("request %d rode width=%d panel=%d, want 3/3", i, res.width, res.panelWidth)
		}
		// The coalesced answer must be bit-identical to a direct solve.
		want, _, err := slot.solver.Solve(rhs(n, i))
		if err != nil {
			t.Fatalf("reference solve %d: %v", i, err)
		}
		wc, gc := want.Col(0), res.x.Col(0)
		for row := range wc {
			if wc[row] != gc[row] {
				t.Fatalf("request %d row %d: coalesced %v != direct %v", i, row, gc[row], wc[row])
			}
		}
	}

	if got := s.admit.depth(); got != 0 {
		t.Fatalf("queue depth = %d after flush, want 0", got)
	}
	st := s.Stats()
	if st.MeanBatchWidth != 3 {
		t.Fatalf("mean batch width = %v, want 3", st.MeanBatchWidth)
	}
	if st.OK != 3 {
		t.Fatalf("ok requests = %v, want 3", st.OK)
	}
	if s.metrics.flushes.With("timer").Value() != 1 {
		t.Fatal("expected exactly one timer flush")
	}
}

func TestCoalesceMaxBatchFlushesWithoutClock(t *testing.T) {
	s, _, h, slot := newTestServer(t, func(o *Options) { o.MaxBatch = 4 })
	reqs := make([]*request, 4)
	for i := range reqs {
		reqs[i] = submit(t, s, slot, rhs(h.N, i), nil)
	}
	// The 4th add reached max-batch; the flush needs no clock advance.
	for i, r := range reqs {
		res := <-r.done
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		if res.width != 4 {
			t.Fatalf("request %d width = %d, want 4", i, res.width)
		}
	}
	if s.metrics.flushes.With("full").Value() != 1 {
		t.Fatal("expected exactly one full flush")
	}
}

func TestCoalesceFaultIsolation(t *testing.T) {
	s, fc, h, slot := newTestServer(t, nil)
	n := h.N

	crash := &fault.Plan{Seed: 7, Crash: map[int]float64{1: 0}}
	clean0 := submit(t, s, slot, rhs(n, 0), nil)
	faulted := submit(t, s, slot, rhs(n, 1), crash)
	clean1 := submit(t, s, slot, rhs(n, 2), nil)
	fc.Advance(10 * time.Millisecond)

	res := <-faulted.done
	if res.err == nil {
		t.Fatal("faulted request returned no error")
	}
	if !fault.IsFault(res.err) {
		t.Fatalf("faulted request error %v is not a fault", res.err)
	}
	if res.panelWidth != 1 {
		t.Fatalf("faulted request rode a %d-wide panel, want its own", res.panelWidth)
	}

	for i, r := range []*request{clean0, clean1} {
		seed := []int{0, 2}[i]
		res := <-r.done
		if res.err != nil {
			t.Fatalf("clean request %d: %v", i, res.err)
		}
		if res.panelWidth != 2 {
			t.Fatalf("clean request %d panelWidth = %d, want 2 (merged)", i, res.panelWidth)
		}
		want, _, err := slot.solver.Solve(rhs(n, seed))
		if err != nil {
			t.Fatalf("reference solve: %v", err)
		}
		wc, gc := want.Col(0), res.x.Col(0)
		for row := range wc {
			if wc[row] != gc[row] {
				t.Fatalf("clean request %d row %d: %v != %v", i, row, gc[row], wc[row])
			}
		}
	}

	st := s.Stats()
	if st.OK != 2 || st.Faulted != 1 {
		t.Fatalf("stats ok=%v fault=%v, want 2/1", st.OK, st.Faulted)
	}
	// The solver must stay healthy for the next batch.
	if _, _, err := slot.solver.Solve(rhs(n, 9)); err != nil {
		t.Fatalf("solver unhealthy after faulted batch: %v", err)
	}
}

func TestCoalesceDrainFlushesPending(t *testing.T) {
	s, _, h, slot := newTestServer(t, nil)
	r := submit(t, s, slot, rhs(h.N, 0), nil)
	if n := slot.coal.drain(); n != 1 {
		t.Fatalf("drain flushed %d requests, want 1", n)
	}
	res := <-r.done
	if res.err != nil {
		t.Fatalf("drained request: %v", res.err)
	}
	if res.width != 1 {
		t.Fatalf("drained request width = %d, want 1", res.width)
	}
	if s.metrics.flushes.With("drain").Value() != 1 {
		t.Fatal("expected one drain flush")
	}
}

// TestCoalesceAddAfterDrainFlushes forces the shutdown interleaving the
// HTTP path can hit: a request is admitted, Shutdown's drain pass runs
// before the request reaches its coalescer, and only then is it added. It
// must flush at once, not park until MaxWait.
func TestCoalesceAddAfterDrainFlushes(t *testing.T) {
	s, _, h, slot := newTestServer(t, func(o *Options) { o.MaxWait = time.Hour })
	if v, _ := s.admit.admit("test"); v != admitOK {
		t.Fatalf("admit = %v, want admitOK", v)
	}
	s.admit.startDrain()
	h.drainAll()
	r := &request{b: rhs(h.N, 0), enq: s.clock.Now(), done: make(chan result, 1)}
	slot.coal.add(r)
	select {
	case res := <-r.done:
		if res.err != nil {
			t.Fatalf("request added after the drain pass: %v", res.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("request added after the drain pass never flushed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if s.metrics.flushes.With("drain").Value() != 1 {
		t.Fatal("expected one drain flush")
	}
}

// TestShutdownReachesUnlinkedBatches parks a request in a coalescer, then
// unlinks the coalescer's slot from the handle (LRU eviction) or the handle
// from the cache (DELETE). Shutdown's drain pass walks only linked slots,
// so the unlink itself must flush the batch: Shutdown then returns without
// the fake clock ever reaching MaxWait.
func TestShutdownReachesUnlinkedBatches(t *testing.T) {
	for _, tc := range []struct {
		name   string
		unlink func(t *testing.T, s *Server, h *Handle)
	}{
		{"slot-evicted", func(t *testing.T, s *Server, h *Handle) {
			later := s.clock.Now().Add(time.Second)
			for i := 0; i < maxSlotsPerHandle; i++ {
				if _, evicted := h.slot(fmt.Sprintf("other-%d", i), later); evicted != (i == maxSlotsPerHandle-1) {
					t.Fatalf("slot %d: evicted=%v", i, evicted)
				}
			}
		}},
		{"handle-removed", func(t *testing.T, s *Server, h *Handle) {
			if !s.handles.remove(h.ID) {
				t.Fatal("handle not removed")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, h, slot := newTestServer(t, func(o *Options) { o.MaxWait = time.Hour })
			r := submit(t, s, slot, rhs(h.N, 0), nil)
			tc.unlink(t, s, h)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if res := <-r.done; res.err != nil {
				t.Fatalf("parked request: %v", res.err)
			}
		})
	}
}

// TestAddAfterEvictionDrainFlushes is the eviction twin of
// TestCoalesceAddAfterDrainFlushes: a request looks its slot up, the slot
// is evicted (draining its empty coalescer), and only then does the
// request reach the coalescer. Nothing links the coalescer any more, so
// it must flush at once; with MaxWait an hour the test would otherwise
// block until its timeout.
func TestAddAfterEvictionDrainFlushes(t *testing.T) {
	s, _, h, slot := newTestServer(t, func(o *Options) { o.MaxWait = time.Hour })
	later := s.clock.Now().Add(time.Second)
	for i := 0; i < maxSlotsPerHandle; i++ {
		h.slot(fmt.Sprintf("other-%d", i), later)
	}
	r := submit(t, s, slot, rhs(h.N, 0), nil)
	select {
	case res := <-r.done:
		if res.err != nil {
			t.Fatalf("request added after the eviction drain: %v", res.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("request added after the eviction drain parked until MaxWait")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestCoalesceStaleTimerIsHarmless(t *testing.T) {
	s, fc, h, slot := newTestServer(t, func(o *Options) { o.MaxBatch = 2 })
	// Fill to max-batch: flush happens immediately, but the max-wait timer
	// for this generation is still scheduled on the fake clock.
	a := submit(t, s, slot, rhs(h.N, 0), nil)
	b := submit(t, s, slot, rhs(h.N, 1), nil)
	<-a.done
	<-b.done
	// Enqueue a fresh request, then fire the stale timer's deadline: only
	// the new generation's own timer may flush it.
	c := submit(t, s, slot, rhs(h.N, 2), nil)
	fc.Advance(10 * time.Millisecond)
	res := <-c.done
	if res.err != nil {
		t.Fatalf("request after stale timer: %v", res.err)
	}
	if res.width != 1 {
		t.Fatalf("width = %d, want 1", res.width)
	}
}

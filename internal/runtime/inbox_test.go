package runtime

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestInbox(t *testing.T) *inbox {
	t.Helper()
	b := &inbox{}
	b.init()
	t.Cleanup(func() {
		if b.bufs != nil {
			b.retire()
		}
	})
	return b
}

// TestInboxPerSenderFIFO pins the ordering the algorithms rely on: with
// many senders appending concurrently while the receiver takes batches,
// each sender's messages arrive in the order it sent them.
func TestInboxPerSenderFIFO(t *testing.T) {
	const senders, each = 4, 500
	b := newTestInbox(t)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.put(Msg{Src: src, Tag: i})
			}
		}(s)
	}
	var blocked atomic.Int64
	next := make([]int, senders)
	for got := 0; got < senders*each; {
		if _, ok := b.take(&blocked); !ok {
			t.Fatal("open inbox reported empty")
		}
		for b.next < len(b.batch) {
			m := b.pop()
			if m.Tag != next[m.Src] {
				t.Fatalf("sender %d: got message %d, want %d", m.Src, m.Tag, next[m.Src])
			}
			next[m.Src]++
			got++
		}
	}
	wg.Wait()
	if blocked.Load() != 0 {
		t.Fatal("blocked instant left set after the receive returned")
	}
}

// TestInboxCloseDropsPutsAndDrains pins the abort contract: a put after
// close is dropped, and what was queued before the close still drains.
func TestInboxCloseDropsPutsAndDrains(t *testing.T) {
	b := newTestInbox(t)
	for i := 0; i < 3; i++ {
		b.put(Msg{Tag: i})
	}
	b.close()
	b.put(Msg{Tag: 99})
	var blocked atomic.Int64
	t0, ok := b.take(&blocked)
	if !ok || !t0.IsZero() {
		t.Fatalf("take after close: ok=%v blocked=%v, want the queued batch without blocking", ok, !t0.IsZero())
	}
	for i := 0; i < 3; i++ {
		if m := b.pop(); m.Tag != i {
			t.Fatalf("drained message %d has tag %d", i, m.Tag)
		}
	}
	if _, ok := b.take(&blocked); ok {
		t.Fatalf("take after the drain returned %d more messages (a put after close was kept)", len(b.batch))
	}
}

// TestInboxRetireClearsBuffers pins that buffers go back to the pool with
// every slot zeroed, so a recycled buffer pins no message payload, and that
// a put into a retired inbox (a late delayed send) is dropped.
func TestInboxRetireClearsBuffers(t *testing.T) {
	b := newTestInbox(t)
	payload := &struct{ x [64]float64 }{}
	var blocked atomic.Int64
	for i := 0; i < 8; i++ {
		b.put(Msg{Tag: i, Data: payload})
	}
	b.take(&blocked)
	b.pop() // consume part of the batch; the rest stays unconsumed
	for i := 0; i < 5; i++ {
		b.put(Msg{Tag: i, Data: payload})
	}
	bufs := b.bufs
	b.retire()
	b.put(Msg{Data: payload})
	if b.queue != nil || b.batch != nil {
		t.Fatal("a retired inbox kept buffers")
	}
	for name, buf := range map[string][]Msg{"queue": bufs.queue, "batch": bufs.batch} {
		if len(buf) != 0 {
			t.Fatalf("recycled %s has length %d, want 0", name, len(buf))
		}
		if cap(buf) == 0 {
			t.Fatalf("recycled %s lost its capacity", name)
		}
		for i, m := range buf[:cap(buf)] {
			if m.Data != nil {
				t.Fatalf("recycled %s slot %d still holds Msg.Data", name, i)
			}
		}
	}
}

// TestPoolStrayInDrainedBatch pins that the stray-message check sees
// messages a finished rank left unconsumed in its last batch, not only
// those still queued.
func TestPoolStrayInDrainedBatch(t *testing.T) {
	p := &Pool{Timeout: 10 * time.Second}
	_, err := p.Run(2, func(r int) Handler {
		if r == 1 {
			return &initOnly{fn: func(ctx *Ctx) {
				for i := 0; i < 3; i++ {
					ctx.Send(Msg{Dst: 0, Tag: i, Cat: CatXY})
				}
			}}
		}
		// Sleep so all three messages are queued before rank 0's first
		// receive: it takes them as one batch and is done after one.
		return &recvN{n: 1, init: func(*Ctx) { time.Sleep(50 * time.Millisecond) }}
	})
	if err == nil || !strings.Contains(err.Error(), "2 stray messages for finished rank 0") {
		t.Fatalf("err = %v, want 2 stray messages for rank 0", err)
	}
}

// TestPoolWaitsCountBlockingReceivesOnly pins the wait-count rule shared
// with the Engine: Timers.Waits counts receives that idled the rank, so a
// rank draining messages that were already queued records no more than
// one wait however many it receives.
func TestPoolWaitsCountBlockingReceivesOnly(t *testing.T) {
	const n = 50
	p := &Pool{Timeout: 10 * time.Second}
	res, err := p.Run(2, func(r int) Handler {
		if r == 1 {
			return &initOnly{fn: func(ctx *Ctx) {
				for i := 0; i < n; i++ {
					ctx.Send(Msg{Dst: 0, Tag: i, Cat: CatXY})
				}
			}}
		}
		return &recvN{n: n, init: func(*Ctx) { time.Sleep(50 * time.Millisecond) }}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Timers[0].Waits; w > 1 {
		t.Fatalf("rank 0 recorded %d waits draining %d queued messages, want ≤ 1", w, n)
	}
}

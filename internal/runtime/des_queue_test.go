package runtime

import (
	"container/heap"
	"math/rand"
	"testing"
)

// queueOracle is container/heap over events ordered by (time, seq): the
// reference the engine's typed eventQueue is checked against.
type queueOracle []event

func (h queueOracle) Len() int { return len(h) }
func (h queueOracle) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h queueOracle) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *queueOracle) Push(x any)   { *h = append(*h, x.(event)) }
func (h *queueOracle) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// queuePair drives the typed queue and the oracle in lockstep; seq is
// stamped as the engine stamps it, and the message tag carries it too, so
// a pop that returned the right key with the wrong payload is caught.
type queuePair struct {
	q   eventQueue
	o   queueOracle
	seq int
}

func (p *queuePair) push(t float64) {
	p.seq++
	ev := event{time: t, seq: p.seq, msg: Msg{Tag: p.seq}}
	p.q.push(ev)
	heap.Push(&p.o, ev)
}

func (p *queuePair) pop(t testing.TB) {
	t.Helper()
	got := p.q.pop()
	want := heap.Pop(&p.o).(event)
	if got.time != want.time || got.seq != want.seq || got.msg.Tag != want.msg.Tag {
		t.Fatalf("pop: got (t=%g seq=%d tag=%d), oracle (t=%g seq=%d tag=%d)",
			got.time, got.seq, got.msg.Tag, want.time, want.seq, want.msg.Tag)
	}
	if len(p.q) != p.o.Len() {
		t.Fatalf("queue holds %d events, oracle %d", len(p.q), p.o.Len())
	}
}

// drain pops both queues empty.
func (p *queuePair) drain(t testing.TB) {
	t.Helper()
	for len(p.q) > 0 {
		p.pop(t)
	}
	if p.o.Len() != 0 {
		t.Fatalf("queue empty, oracle holds %d events", p.o.Len())
	}
}

// TestEventQueueMatchesHeapOracle interleaves pushes and pops at several
// push rates, with times drawn from 16 values so most keys tie on time and
// the sequence tie-break decides; every pop must match the oracle's.
func TestEventQueueMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, pushRate := range []float64{0.3, 0.5, 0.7} {
			var p queuePair
			for op := 0; op < 4000; op++ {
				if len(p.q) == 0 || rng.Float64() < pushRate {
					p.push(float64(rng.Intn(16)) / 4)
				} else {
					p.pop(t)
				}
			}
			p.drain(t)
		}
	}
}

// FuzzEventQueue runs a byte-coded push/pop sequence against the oracle:
// a byte with the high bit set pops (pushes when the queue is empty), any
// other byte pushes at time (b & 15) / 4.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var p queuePair
		for _, b := range ops {
			if b&0x80 != 0 && len(p.q) > 0 {
				p.pop(t)
			} else {
				p.push(float64(b&15) / 4)
			}
		}
		p.drain(t)
	})
}

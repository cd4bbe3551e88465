package trsv

import (
	"sync"
	"testing"

	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
)

// fakeOps is a scriptable algorithm: messages whose Tag is in the ready
// set are processable now, the rest early; processing a message can unlock
// further tags.
type fakeOps struct {
	ready     map[int]bool
	unlocks   map[int][]int // tag → tags processing it makes acceptable
	processed []int
}

func (f *fakeOps) start(*runtime.Ctx)           {}
func (f *fakeOps) forceStale(*runtime.Ctx, int) {}
func (f *fakeOps) gate(m runtime.Msg) int {
	if f.ready[m.Tag] {
		return 0
	}
	return 1
}
func (f *fakeOps) process(_ *runtime.Ctx, m runtime.Msg) {
	f.processed = append(f.processed, m.Tag)
	for _, u := range f.unlocks[m.Tag] {
		f.ready[u] = true
	}
}

// TestDrainDeferredChains: a chain where each processed message unlocks an
// earlier survivor must fully drain across rounds, preserving the retained
// queue's relative order at every step.
func TestDrainDeferredChains(t *testing.T) {
	c := &rankCore{st: &solveState{}}
	// Queue 5,4,3,2,1; only 1 starts acceptable and each k unlocks k+1, so
	// round one processes just 1, round two just 2, and so on — the worst
	// case for restart-from-zero scans, five rounds here.
	for tag := 5; tag >= 1; tag-- {
		c.st.deferred = append(c.st.deferred, runtime.Msg{Tag: tag})
	}
	ops := &fakeOps{
		ready:   map[int]bool{1: true},
		unlocks: map[int][]int{1: {2}, 2: {3}, 3: {4}, 4: {5}},
	}
	c.alg = ops
	c.drainDeferred(nil)
	if len(c.st.deferred) != 0 {
		t.Fatalf("queue not drained: %d left", len(c.st.deferred))
	}
	want := []int{1, 2, 3, 4, 5}
	if len(ops.processed) != len(want) {
		t.Fatalf("processed %v, want %v", ops.processed, want)
	}
	for i, tag := range want {
		if ops.processed[i] != tag {
			t.Fatalf("processed %v, want %v", ops.processed, want)
		}
	}
}

// TestDrainDeferredZeroesVacatedTail: compaction must clear the backing
// array beyond the new length — a stale runtime.Msg there pins its Data
// panel while the state waits in the pool (the retention bug this rewrite
// fixed kept a duplicate of the last survivor alive past len).
func TestDrainDeferredZeroesVacatedTail(t *testing.T) {
	c := &rankCore{st: &solveState{}}
	panel := sparse.NewPanel(4, 1)
	for tag := 1; tag <= 6; tag++ {
		c.st.deferred = append(c.st.deferred, runtime.Msg{Tag: tag, Data: &panelMsg{K: tag, P: panel}})
	}
	// Accept the even tags: three survivors compact to the front, three
	// slots beyond len must be zeroed.
	ops := &fakeOps{ready: map[int]bool{2: true, 4: true, 6: true}}
	c.alg = ops
	c.drainDeferred(nil)
	d := c.st.deferred
	if len(d) != 3 {
		t.Fatalf("want 3 survivors, got %d", len(d))
	}
	for i, wantTag := range []int{1, 3, 5} {
		if d[i].Tag != wantTag {
			t.Fatalf("survivor %d has tag %d, want %d (order not preserved)", i, d[i].Tag, wantTag)
		}
	}
	tail := d[len(d):cap(d)]
	for i := range tail {
		if tail[i].Data != nil || tail[i].Tag != 0 {
			t.Fatalf("stale message retained at backing slot len+%d: %+v", i, tail[i])
		}
	}
}

// TestReleaseClearsBackingArrays: release must clear deferred to capacity,
// not length — compaction reslices it, leaving panel-holding messages
// beyond len.
func TestReleaseClearsBackingArrays(t *testing.T) {
	st := &solveState{}
	st.owner = &sync.Pool{}
	panel := sparse.NewPanel(4, 1)
	for i := 0; i < 4; i++ {
		st.deferred = append(st.deferred, runtime.Msg{Tag: 1, Data: &panelMsg{K: i, P: panel}})
	}
	// Simulate a compaction reslice: the live prefix shrinks, stale
	// elements remain in the backing array beyond len.
	st.deferred = st.deferred[:1]
	defCap := st.deferred[:cap(st.deferred)]
	st.release()
	for i := range defCap {
		if defCap[i].Data != nil {
			t.Fatalf("release left deferred slot %d holding %+v", i, defCap[i])
		}
	}
}

// BenchmarkDrainDeferred measures a deferred-heavy drain: n buffered
// messages released in waves, each round unlocking the next wave — the
// load shape of a phase transition arriving after a long out-of-phase
// backlog.
func BenchmarkDrainDeferred(b *testing.B) {
	const n = 4096
	const waves = 8
	c := &rankCore{st: &solveState{}}
	msgs := make([]runtime.Msg, n)
	for i := range msgs {
		msgs[i] = runtime.Msg{Tag: 1 + i%waves}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.st.deferred = append(c.st.deferred[:0], msgs...)
		ops := &fakeOps{ready: map[int]bool{1: true}, unlocks: map[int][]int{}}
		for w := 1; w < waves; w++ {
			ops.unlocks[w] = []int{w + 1}
		}
		c.alg = ops
		c.drainDeferred(nil)
		if len(c.st.deferred) != 0 {
			b.Fatal("not drained")
		}
	}
}

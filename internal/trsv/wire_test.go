package trsv

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sptrsv/internal/ctree"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
)

// msgPanels returns the panels a message carries (none for a self-event).
func msgPanels(m runtime.Msg) []*sparse.Panel {
	switch d := m.Data.(type) {
	case *panelMsg:
		return []*sparse.Panel{d.P}
	case *vecBundle:
		return d.Ps
	}
	return nil
}

// recountMsg recomputes a message's modeled byte count from its panels'
// dimensions, independently of the bytes()/singleBytes helpers the
// senders used: the model is envelope + per panel (header + 8·Rows·Cols).
func recountMsg(m runtime.Msg) (int, bool) {
	switch m.Data.(type) {
	case *panelMsg, *vecBundle:
	default:
		return 0, false
	}
	n := wireEnvBytes
	for _, p := range msgPanels(m) {
		n += wireHdrBytes + 8*p.Rows*p.Cols
	}
	return n, true
}

// tapBackend wraps a backend so every delivered message passes through tap
// before the rank's handler sees it; tap returns the message to deliver.
// The test backends below are built on it.
type tapBackend struct {
	inner Backend
	tap   func(runtime.Msg) runtime.Msg
}

func (tb tapBackend) Run(n int, net runtime.Network, f func(int) runtime.Handler) (*runtime.Result, error) {
	return tb.inner.Run(n, net, func(rank int) runtime.Handler {
		return &tapHandler{inner: f(rank), tap: tb.tap}
	})
}

type tapHandler struct {
	inner runtime.Handler
	tap   func(runtime.Msg) runtime.Msg
}

func (h *tapHandler) Init(ctx *runtime.Ctx)                     { h.inner.Init(ctx) }
func (h *tapHandler) Done() bool                                { return h.inner.Done() }
func (h *tapHandler) OnMessage(ctx *runtime.Ctx, m runtime.Msg) { h.inner.OnMessage(ctx, h.tap(m)) }

// recountBackend wraps a backend so every delivered message's Bytes field
// is checked against an independent recount of its panels.
type recountBackend struct {
	inner Backend
	mu    sync.Mutex
	bad   []string
}

func (rb *recountBackend) Run(n int, net runtime.Network, f func(int) runtime.Handler) (*runtime.Result, error) {
	return tapBackend{inner: rb.inner, tap: func(m runtime.Msg) runtime.Msg {
		if want, ok := recountMsg(m); ok && want != m.Bytes {
			rb.mu.Lock()
			rb.bad = append(rb.bad, fmt.Sprintf("tag %s: Bytes %d, payload recount %d", TagName(m.Tag), m.Bytes, want))
			rb.mu.Unlock()
		}
		return m
	}}.Run(n, net, f)
}

// TestByteAccountingInvariant: across all four algorithms and both
// backends, every message's Bytes field equals an independent recount of
// its panels' dimensions — the byte model is charged exactly once and
// consistently per panel.
func TestByteAccountingInvariant(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 31), 3, 8)
	model := machine.CrusherGPU() // has both CPU and GPU parameters
	cases := []struct {
		algo   Algorithm
		layout grid.Layout
		backs  []Backend
	}{
		{Proposed3D, grid.Layout{Px: 2, Py: 2, Pz: 4}, []Backend{SimBackend{}, PoolBackend{Pool: runtime.Pool{Timeout: 30 * time.Second}}}},
		{Baseline3D, grid.Layout{Px: 2, Py: 2, Pz: 4}, []Backend{SimBackend{}, PoolBackend{Pool: runtime.Pool{Timeout: 30 * time.Second}}}},
		{Proposed3DNaiveAR, grid.Layout{Px: 2, Py: 2, Pz: 4}, []Backend{SimBackend{}}},
		{GPUSingle, grid.Layout{Px: 1, Py: 1, Pz: 4}, []Backend{SimBackend{}}},
		{GPUMulti, grid.Layout{Px: 2, Py: 1, Pz: 4}, []Backend{SimBackend{}}},
	}
	rng := rand.New(rand.NewSource(73))
	b := randPanel(rng, pl.m.N, 2)
	for _, tc := range cases {
		for _, back := range tc.backs {
			rb := &recountBackend{inner: back}
			p := pl.plan(t, tc.layout, ctree.Binary)
			x := sparse.NewPanel(b.Rows, b.Cols)
			if _, err := Solve(p, model, tc.algo, rb, b, x, SolveOpts{}); err != nil {
				t.Fatalf("%v %T: %v", tc.algo, back, err)
			}
			for i, msg := range rb.bad {
				if i == 5 {
					t.Errorf("%v %T: ... %d more", tc.algo, back, len(rb.bad)-i)
					break
				}
				t.Errorf("%v %T: %s", tc.algo, back, msg)
			}
		}
	}
}

// panelHash is the FNV-1a 64 hash of a panel's Float64bits.
func panelHash(p *sparse.Panel) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range p.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestSentPanelsImmutable pins the runtime.Msg ownership rule every
// receipt relies on now that it reads the sender's panel: a sender never
// writes a panel after sending it, and receivers only read it. Each
// delivered panel is hashed when it is delivered (once per delivery, so a
// broadcast panel read by several children is checked at each), and again
// once the solve has returned; no hash may change. The CPU algorithms run
// on a 2×2×2 layout on both backends, the GPU ones (simulation-only, one
// grid column) on 1×1×2 and 2×1×2.
func TestSentPanelsImmutable(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 31), 3, 8)
	model := machine.CrusherGPU()
	l := grid.Layout{Px: 2, Py: 2, Pz: 2}
	pool := PoolBackend{Pool: runtime.Pool{Timeout: 30 * time.Second}}
	b := randPanel(rand.New(rand.NewSource(77)), pl.m.N, 2)
	cases := []struct {
		algo  Algorithm
		l     grid.Layout
		backs []Backend
	}{
		{Proposed3D, l, []Backend{SimBackend{}, pool}},
		{Baseline3D, l, []Backend{SimBackend{}, pool}},
		{Proposed3DNaiveAR, l, []Backend{SimBackend{}, pool}},
		{GPUSingle, grid.Layout{Px: 1, Py: 1, Pz: 2}, []Backend{SimBackend{}}},
		{GPUMulti, grid.Layout{Px: 2, Py: 1, Pz: 2}, []Backend{SimBackend{}}},
	}
	for _, tc := range cases {
		for _, back := range tc.backs {
			var mu sync.Mutex
			seen := map[*sparse.Panel]uint64{}
			var bad []string
			tap := tapBackend{inner: back, tap: func(m runtime.Msg) runtime.Msg {
				for _, p := range msgPanels(m) {
					h := panelHash(p)
					mu.Lock()
					if old, ok := seen[p]; ok && old != h {
						bad = append(bad, fmt.Sprintf("tag %s: panel changed between deliveries", TagName(m.Tag)))
					}
					seen[p] = h
					mu.Unlock()
				}
				return m
			}}
			x := sparse.NewPanel(b.Rows, b.Cols)
			if _, err := Solve(pl.plan(t, tc.l, ctree.Binary), model, tc.algo, tap, b, x, SolveOpts{}); err != nil {
				t.Fatalf("%v %T: %v", tc.algo, back, err)
			}
			if len(seen) == 0 {
				t.Fatalf("%v %T: no panel was delivered", tc.algo, back)
			}
			for p, h := range seen {
				if panelHash(p) != h {
					bad = append(bad, fmt.Sprintf("%dx%d panel changed after delivery", p.Rows, p.Cols))
				}
			}
			for i, msg := range bad {
				if i == 5 {
					t.Errorf("%v %T: ... %d more", tc.algo, back, len(bad)-i)
					break
				}
				t.Errorf("%v %T: %s", tc.algo, back, msg)
			}
			if d := x.MaxAbsDiff(pl.m.Solve(b)); d > 1e-8 {
				t.Errorf("%v %T: solution off by %g", tc.algo, back, d)
			}
		}
	}
}

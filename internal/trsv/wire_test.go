package trsv

import (
	"fmt"
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

// sparsePanel builds a panel whose density, trailing-zero columns, and
// special values (±0.0, subnormals) are driven by the rng — the property
// inputs of the pack/unpack round trip.
func sparsePanel(rng *rand.Rand, rows, cols int) *sparse.Panel {
	p := sparse.NewPanel(rows, cols)
	density := rng.Float64()
	zeroTail := rng.Intn(cols + 1) // trailing columns left all-zero
	for j := 0; j < cols-zeroTail; j++ {
		col := p.Col(j)
		for i := range col {
			if rng.Float64() >= density {
				continue
			}
			switch rng.Intn(8) {
			case 0:
				col[i] = math.Copysign(0, -1) // −0.0 must survive the trip
			case 1:
				col[i] = 5e-324 // subnormal
			default:
				col[i] = rng.NormFloat64()
			}
		}
	}
	return p
}

// TestPackPanelRoundTrip: packing any panel and unpacking it reproduces
// the original bit-for-bit, and the packed representation never models
// more bytes than the dense one.
func TestPackPanelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	c := &rankCore{st: &solveState{}}
	for trial := 0; trial < 300; trial++ {
		rows := 1 + rng.Intn(40)
		cols := []int{1, 4, 16}[rng.Intn(3)]
		p := sparsePanel(rng, rows, cols)
		for _, mode := range []CommMode{CommPacked, CommDense, CommAggregated} {
			w := packPanel(p, mode)
			got := c.unpackPanel(&w)
			if got.Rows != p.Rows || got.Cols != p.Cols {
				t.Fatalf("mode %v: shape %dx%d, want %dx%d", mode, got.Rows, got.Cols, p.Rows, p.Cols)
			}
			for i := range p.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(p.Data[i]) {
					t.Fatalf("mode %v trial %d: element %d = %x, want %x",
						mode, trial, i, math.Float64bits(got.Data[i]), math.Float64bits(p.Data[i]))
				}
			}
		}
		dense := packPanel(p, CommDense)
		packed := packPanel(p, CommPacked)
		if singleBytes(&packed) > singleBytes(&dense) {
			t.Fatalf("trial %d: packed %d B above dense %d B", trial, singleBytes(&packed), singleBytes(&dense))
		}
	}
}

// TestAddWireMatchesDenseAdd: accumulating a packed panel equals the dense
// panel add in value (suppressed entries are +0.0; skipping them can only
// keep a −0.0 where a dense add would produce +0.0 — equal under ==).
func TestAddWireMatchesDenseAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(30)
		cols := 1 + rng.Intn(5)
		src := sparsePanel(rng, rows, cols)
		acc := sparsePanel(rng, rows, cols)
		want := acc.Clone()
		want.AddFrom(src)
		w := packPanel(src, CommPacked)
		addWire(acc, &w)
		for i := range acc.Data {
			if acc.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: element %d = %g, want %g", trial, i, acc.Data[i], want.Data[i])
			}
		}
	}
}

// recountMsg recomputes a message's modeled byte count from its payload,
// independently of the bytes()/singleBytes helpers the senders used: the
// uniform model is envelope + per entry (header + 4·indices + 8·values).
func recountMsg(m runtime.Msg) (int, bool) {
	entry := func(w *wirePanel) int {
		return wireHdrBytes + wireIdxBytes*len(w.RowIdx) + 8*len(w.Vals)
	}
	switch d := m.Data.(type) {
	case *yMsg:
		return wireEnvBytes + entry(&d.W), true
	case *sumMsg:
		return wireEnvBytes + entry(&d.W), true
	case *groupMsg:
		return wireEnvBytes + entry(&d.W), true
	case *gpuPut:
		return wireEnvBytes + entry(&d.W), true
	case *vecBundle:
		n := wireEnvBytes
		for i := range d.Ws {
			n += entry(&d.Ws[i])
		}
		return n, true
	case *aggMsg:
		n := wireEnvBytes
		for i := range d.Ws {
			n += entry(&d.Ws[i])
		}
		return n, true
	}
	return 0, false
}

// recountBackend wraps a backend so every delivered message's Bytes field
// is checked against an independent recount of its packed payload.
type recountBackend struct {
	inner Backend
	mu    sync.Mutex
	bad   []string
}

func (rb *recountBackend) Run(n int, net runtime.Network, f func(int) runtime.Handler) (*runtime.Result, error) {
	return rb.inner.Run(n, net, func(rank int) runtime.Handler {
		return &recountHandler{inner: f(rank), rb: rb}
	})
}

type recountHandler struct {
	inner runtime.Handler
	rb    *recountBackend
}

func (h *recountHandler) Init(ctx *runtime.Ctx) { h.inner.Init(ctx) }
func (h *recountHandler) Done() bool            { return h.inner.Done() }

func (h *recountHandler) OnMessage(ctx *runtime.Ctx, m runtime.Msg) {
	if want, ok := recountMsg(m); ok && want != m.Bytes {
		h.rb.mu.Lock()
		h.rb.bad = append(h.rb.bad, fmt.Sprintf("tag %s: Bytes %d, payload recount %d", TagName(m.Tag), m.Bytes, want))
		h.rb.mu.Unlock()
	}
	h.inner.OnMessage(ctx, m)
}

// releaseState forwards the pooled-state release through the wrapper so
// wrapped solves still return their states.
func (h *recountHandler) releaseState() {
	if r, ok := h.inner.(stateReleaser); ok {
		r.releaseState()
	}
}

// TestByteAccountingInvariant: across all four algorithms and both
// backends, every message's Bytes field equals an independent recount of
// its packed payload — the wire model is charged exactly once and
// consistently per entry.
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
			for _, comm := range []CommMode{CommPacked, CommDense, CommAggregated} {
				rb := &recountBackend{inner: back}
				p := pl.plan(t, tc.layout, ctree.Binary)
				x := sparse.NewPanel(b.Rows, b.Cols)
				if _, err := SolveIntoOpts(p, model, tc.algo, rb, b, x, SolveOpts{Comm: comm}); err != nil {
					t.Fatalf("%v %v %T: %v", tc.algo, comm, back, err)
				}
				for i, msg := range rb.bad {
					if i == 5 {
						t.Errorf("%v %v %T: ... %d more", tc.algo, comm, back, len(rb.bad)-i)
						break
					}
					t.Errorf("%v %v %T: %s", tc.algo, comm, back, msg)
				}
			}
		}
	}
}

// TestPackedMatchesDenseOracle: the packed wire format is an encoding
// change only — against the dense reference every algorithm must keep the
// message count exactly, move no more bytes, and produce value-identical
// solutions.
func TestPackedMatchesDenseOracle(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 32), 3, 8)
	model := machine.CrusherGPU()
	cases := []struct {
		algo   Algorithm
		layout grid.Layout
	}{
		{Proposed3D, grid.Layout{Px: 2, Py: 2, Pz: 4}},
		{Baseline3D, grid.Layout{Px: 2, Py: 2, Pz: 4}},
		{Proposed3DNaiveAR, grid.Layout{Px: 2, Py: 2, Pz: 4}},
		{GPUSingle, grid.Layout{Px: 1, Py: 1, Pz: 4}},
		{GPUMulti, grid.Layout{Px: 2, Py: 1, Pz: 4}},
	}
	rng := rand.New(rand.NewSource(74))
	b := randPanel(rng, pl.m.N, 3)
	for _, tc := range cases {
		solveWith := func(comm CommMode) (*sparse.Panel, *runtime.Result) {
			p := pl.plan(t, tc.layout, ctree.Binary)
			x := sparse.NewPanel(b.Rows, b.Cols)
			res, err := SolveIntoOpts(p, model, tc.algo, SimBackend{}, b, x, SolveOpts{Comm: comm})
			if err != nil {
				t.Fatalf("%v %v: %v", tc.algo, comm, err)
			}
			return x, res
		}
		xd, rd := solveWith(CommDense)
		xp, rp := solveWith(CommPacked)
		for i := range xd.Data {
			if xd.Data[i] != xp.Data[i] {
				t.Fatalf("%v: solution element %d differs: dense %g, packed %g", tc.algo, i, xd.Data[i], xp.Data[i])
			}
		}
		if dm, pm := rd.TotalMsgs(), rp.TotalMsgs(); dm != pm {
			t.Errorf("%v: packed sent %d messages, dense %d — counts must match", tc.algo, pm, dm)
		}
		if db, pb := rd.TotalBytes(), rp.TotalBytes(); pb > db {
			t.Errorf("%v: packed moved %d B, above dense %d B", tc.algo, pb, db)
		}
	}
}

// TestAggregatedCoalescesMessages: per-destination aggregation in the
// proposed algorithm must send strictly fewer XY messages than the packed
// per-message path on a layout with real 2D fan-out, at an unchanged
// correct solution (aggregation reorders floating-point accumulation, so
// the comparison is against the serial reference, not bit-for-bit).
func TestAggregatedCoalescesMessages(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 33), 3, 8)
	model := machine.CoriHaswell()
	l := grid.Layout{Px: 3, Py: 3, Pz: 2}
	rng := rand.New(rand.NewSource(75))
	b := randPanel(rng, pl.m.N, 2)
	want := pl.m.Solve(b)
	solveWith := func(comm CommMode) (*sparse.Panel, *runtime.Result) {
		p := pl.plan(t, l, ctree.Binary)
		x := sparse.NewPanel(b.Rows, b.Cols)
		res, err := SolveIntoOpts(p, model, Proposed3D, SimBackend{}, b, x, SolveOpts{Comm: comm})
		if err != nil {
			t.Fatalf("%v: %v", comm, err)
		}
		return x, res
	}
	xa, ra := solveWith(CommAggregated)
	_, rp := solveWith(CommPacked)
	if d := xa.MaxAbsDiff(want); d > 1e-8 {
		t.Fatalf("aggregated solution off by %g", d)
	}
	am, pm := ra.CatMsgs(runtime.CatXY), rp.CatMsgs(runtime.CatXY)
	if am >= pm {
		t.Fatalf("aggregated sent %d XY messages, packed %d — aggregation must coalesce", am, pm)
	}
	// The aggregated solution's exact bits are pinned by the
	// "aggregated/proposed" engine golden (TestEngineMatchesGoldens).
}

// TestZeroRunSuppressionGPU: on the fig9 configuration (GPU single,
// 1x1x4), a multi-RHS batch padded with trailing zero columns must move
// strictly fewer bytes packed than dense, at an unchanged message count
// and a correct solution — the zero-run suppression of the wire format.
// (At nrhs=1 the fig9 subvectors are fully dense — a triangular solve
// densifies every panel — so column suppression is where the GPU points'
// byte reduction comes from.)
func TestZeroRunSuppressionGPU(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 35), 3, 8)
	model := machine.CrusherGPU()
	l := grid.Layout{Px: 1, Py: 1, Pz: 4}
	rng := rand.New(rand.NewSource(76))
	b := sparse.NewPanel(pl.m.N, 4)
	for j := 0; j < 2; j++ { // last two columns stay zero (padded batch)
		col := b.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	want := pl.m.Solve(b)
	solveWith := func(comm CommMode) (*sparse.Panel, *runtime.Result) {
		p := pl.plan(t, l, ctree.Auto)
		x := sparse.NewPanel(b.Rows, b.Cols)
		res, err := SolveIntoOpts(p, model, GPUSingle, SimBackend{}, b, x, SolveOpts{Comm: comm})
		if err != nil {
			t.Fatalf("%v: %v", comm, err)
		}
		if d := x.MaxAbsDiff(want); d > 1e-8 {
			t.Fatalf("%v: solution off by %g", comm, d)
		}
		return x, res
	}
	_, rd := solveWith(CommDense)
	_, rp := solveWith(CommPacked)
	if dm, pm := rd.TotalMsgs(), rp.TotalMsgs(); dm != pm {
		t.Fatalf("packed sent %d messages, dense %d", pm, dm)
	}
	if db, pb := rd.TotalBytes(), rp.TotalBytes(); pb >= db {
		t.Fatalf("packed moved %d B, dense %d B — zero columns must be suppressed", pb, db)
	}
}

// TestCommModeValidation: unknown modes are rejected before any solve.
func TestCommModeValidation(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(8, 8, 34), 2, 8)
	p := pl.plan(t, grid.Layout{Px: 1, Py: 1, Pz: 1}, ctree.Flat)
	b := sparse.NewPanel(pl.m.N, 1)
	x := sparse.NewPanel(pl.m.N, 1)
	if _, err := SolveIntoOpts(p, machine.CoriHaswell(), Proposed3D, SimBackend{}, b, x, SolveOpts{Comm: CommMode(99)}); err == nil {
		t.Fatal("CommMode(99) accepted")
	}
}

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

// checkWire is the wire-format property check shared by
// TestPackPanelRoundTrip and FuzzPackRoundTrip: packing src and unpacking
// it reproduces src bit for bit; the entry never models more bytes than
// src's full Rows×Cols dense form; and accumulating the entry into acc
// equals a dense add bit for bit, except where src holds a +0.0 that the
// packing suppressed: there addWire leaves the accumulator untouched,
// which differs from acc + 0.0 only for a −0.0 accumulator (DESIGN.md
// §13). A NaN sum matches any NaN: Go leaves the payload of a
// NaN-producing add unspecified. acc is not modified.
func checkWire(t testing.TB, src, acc *sparse.Panel) {
	t.Helper()
	c := &rankCore{st: &solveState{}}
	w := packPanel(src)
	got := c.unpackPanel(&w)
	if got.Rows != src.Rows || got.Cols != src.Cols {
		t.Fatalf("unpacked shape %dx%d, want %dx%d", got.Rows, got.Cols, src.Rows, src.Cols)
	}
	for i := range src.Data {
		if g, s := math.Float64bits(got.Data[i]), math.Float64bits(src.Data[i]); g != s {
			t.Fatalf("%dx%d: unpacked element %d = %#x, want %#x", src.Rows, src.Cols, i, g, s)
		}
	}
	if dense := wireHdrBytes + 8*src.Rows*src.Cols; w.wireBytes() > dense {
		t.Fatalf("%dx%d: packed entry %d B above dense %d B", src.Rows, src.Cols, w.wireBytes(), dense)
	}
	sum := acc.Clone()
	addWire(sum, &w)
	want := acc.Clone()
	want.AddFrom(src)
	for i := range want.Data {
		g, wb := math.Float64bits(sum.Data[i]), math.Float64bits(want.Data[i])
		skipped := math.Float64bits(src.Data[i]) == 0 && g == math.Float64bits(acc.Data[i])
		bothNaN := math.IsNaN(sum.Data[i]) && math.IsNaN(want.Data[i])
		if g != wb && !skipped && !bothNaN {
			t.Fatalf("%dx%d: addWire element %d = %#x, dense add %#x", src.Rows, src.Cols, i, g, wb)
		}
	}
}

// TestPackPanelRoundTrip runs checkWire over rng-driven panels.
func TestPackPanelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		rows := 1 + rng.Intn(40)
		cols := []int{1, 4, 16}[rng.Intn(3)]
		checkWire(t, sparsePanel(rng, rows, cols), sparsePanel(rng, rows, cols))
	}
}

// FuzzPackRoundTrip runs checkWire over panels decoded from the fuzz
// input (see fuzzPanels). Seeds live in testdata/fuzz/FuzzPackRoundTrip.
func FuzzPackRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src, acc := fuzzPanels(data)
		checkWire(t, src, acc)
	})
}

// fuzzPanels decodes fuzz bytes into a source panel and an accumulator of
// the same shape. Bytes 0–2 give rows (1–64), cols (1–16) and how many
// trailing source columns stay all-zero; every later element takes one
// selector byte (and some a payload byte) choosing +0.0, −0.0, a
// subnormal, a NaN bit pattern of either sign, or a normal value.
// Elements past the end of the input are +0.0.
func fuzzPanels(data []byte) (src, acc *sparse.Panel) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	rows, cols := 1+int(next())%64, 1+int(next())%16
	zeroTail := int(next()) % (cols + 1)
	value := func() float64 {
		sel := next()
		var sign uint64
		if sel&0x80 != 0 {
			sign = 1 << 63
		}
		switch sel % 8 {
		case 0, 1, 2:
			return 0
		case 3:
			return math.Copysign(0, -1)
		case 4:
			return math.Float64frombits(sign | (uint64(next()) + 1)) // subnormal
		case 5:
			return math.Float64frombits(sign | 0x7ff0000000000001 | uint64(next())<<8) // NaN
		}
		return float64(int8(next())) / 8
	}
	src, acc = sparse.NewPanel(rows, cols), sparse.NewPanel(rows, cols)
	for i := range src.Data[:rows*(cols-zeroTail)] {
		src.Data[i] = value()
	}
	for i := range acc.Data {
		acc.Data[i] = value()
	}
	return src, acc
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
		w := packPanel(src)
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
	case *panelMsg:
		return wireEnvBytes + entry(&d.W), true
	case *vecBundle:
		n := wireEnvBytes
		for i := range d.Ws {
			n += entry(&d.Ws[i])
		}
		return n, true
	}
	return 0, false
}

// tapBackend wraps a backend so every delivered message passes through tap
// before the rank's handler sees it; tap returns the message to deliver.
// The test wire backends below are built on it.
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

// releaseState forwards the pooled-state release through the wrapper so
// wrapped solves still return their states.
func (h *tapHandler) releaseState() {
	if r, ok := h.inner.(stateReleaser); ok {
		r.releaseState()
	}
}

// recountBackend wraps a backend so every delivered message's Bytes field
// is checked against an independent recount of its packed payload.
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

// denseWireBackend is the dense-wire oracle: it wraps a backend so every
// delivered message reaches its handler with each wire entry replaced by
// the entry's full Rows×Cols dense form — the model of a solver that
// ships every panel uncompressed. The swap happens in a copy of the
// message and its payload; the sent message and the panel storage its
// entries alias are never written. It tallies the delivered wire messages
// and their modeled bytes in both forms.
type denseWireBackend struct {
	inner Backend
	mu    sync.Mutex
	msgs  int
	// packedBytes sums the delivered Bytes; denseBytes the same messages
	// recounted with every entry dense.
	packedBytes, denseBytes int
}

func (db *denseWireBackend) Run(n int, net runtime.Network, f func(int) runtime.Handler) (*runtime.Result, error) {
	return tapBackend{inner: db.inner, tap: db.densify}.Run(n, net, f)
}

func (db *denseWireBackend) densify(m runtime.Msg) runtime.Msg {
	out := m
	switch d := m.Data.(type) {
	case *panelMsg:
		c := *d
		c.W = denseWire(&d.W)
		out.Data = &c
	case *vecBundle:
		c := *d
		c.Ws = make([]wirePanel, len(d.Ws))
		for i := range d.Ws {
			c.Ws[i] = denseWire(&d.Ws[i])
		}
		out.Data = &c
	}
	dense, ok := recountMsg(out)
	if !ok {
		return m // a self-event: no wire payload
	}
	out.Bytes = dense
	db.mu.Lock()
	db.msgs++
	db.packedBytes += m.Bytes
	db.denseBytes += dense
	db.mu.Unlock()
	return out
}

// denseWire returns w's full Rows×Cols dense form in fresh storage.
func denseWire(w *wirePanel) wirePanel {
	p := sparse.NewPanel(w.Rows, w.Cols)
	scatterWire(p, w)
	return wirePanel{Rows: w.Rows, Cols: w.Cols, EffCols: w.Cols, Vals: p.Data}
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

// solveDenseOracle solves once over backend back and once over the same
// backend wrapped in denseWireBackend, and checks the oracle's
// invariants: value-identical solutions, and the same message count on
// both runs and in the oracle's delivery tally. It returns the oracle so
// the caller can compare byte totals.
func solveDenseOracle(t *testing.T, back Backend, solve func(Backend) (*sparse.Panel, *runtime.Result)) *denseWireBackend {
	t.Helper()
	xp, rp := solve(back)
	db := &denseWireBackend{inner: back}
	xd, rd := solve(db)
	for i := range xd.Data {
		if xd.Data[i] != xp.Data[i] {
			t.Fatalf("solution element %d differs: dense %g, packed %g", i, xd.Data[i], xp.Data[i])
		}
	}
	if dm, pm := rd.TotalMsgs(), rp.TotalMsgs(); dm != pm || db.msgs != pm {
		t.Fatalf("dense oracle sent %d and delivered %d messages, packed sent %d — counts must match", dm, db.msgs, pm)
	}
	if db.packedBytes != rp.TotalBytes() {
		t.Fatalf("oracle tallied %d packed B, the packed run sent %d B", db.packedBytes, rp.TotalBytes())
	}
	return db
}

// TestPackedMatchesDenseOracle: the packed wire format is an encoding
// change only — against the dense oracle every algorithm must keep the
// message count exactly, move no more bytes, and produce value-identical
// solutions that match the serial reference.
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
	want := pl.m.Solve(b)
	for _, tc := range cases {
		t.Run(tc.algo.String(), func(t *testing.T) {
			db := solveDenseOracle(t, SimBackend{}, func(back Backend) (*sparse.Panel, *runtime.Result) {
				p := pl.plan(t, tc.layout, ctree.Binary)
				x := sparse.NewPanel(b.Rows, b.Cols)
				res, err := Solve(p, model, tc.algo, back, b, x, SolveOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if d := x.MaxAbsDiff(want); d > 1e-8 {
					t.Fatalf("solution off by %g", d)
				}
				return x, res
			})
			if db.packedBytes > db.denseBytes {
				t.Errorf("packed moved %d B, above dense %d B", db.packedBytes, db.denseBytes)
			}
		})
	}
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
	db := solveDenseOracle(t, SimBackend{}, func(back Backend) (*sparse.Panel, *runtime.Result) {
		p := pl.plan(t, l, ctree.Auto)
		x := sparse.NewPanel(b.Rows, b.Cols)
		res, err := Solve(p, model, GPUSingle, back, b, x, SolveOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if d := x.MaxAbsDiff(want); d > 1e-8 {
			t.Fatalf("solution off by %g", d)
		}
		return x, res
	})
	if db.packedBytes >= db.denseBytes {
		t.Fatalf("packed moved %d B, dense %d B — zero columns must be suppressed", db.packedBytes, db.denseBytes)
	}
}

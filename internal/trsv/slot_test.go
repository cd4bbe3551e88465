package trsv

import (
	"math/rand"
	"testing"
	"time"

	"sptrsv/internal/ctree"
	"sptrsv/internal/dist"
	"sptrsv/internal/fault"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
)

// Slot-indexed solve state: every per-supernode table of a solve is indexed
// by the grid's schedule slot, so a key off the grid's path is a protocol
// bug, and every working panel comes from the arena the schedule sizes.

// runRanks runs one solve the way SolveIntoOpts does, except that wrap may
// replace each rank's handler (to observe its messages) and the handlers
// come back with their states still held, for inspection; the caller
// releases them with releaseRanks. The solution is not returned.
func runRanks(t *testing.T, p *dist.Plan, model *machine.Model, algo Algorithm, back Backend, b *sparse.Panel, opts SolveOpts, wrap func(runtime.Handler) runtime.Handler) ([]runtime.Handler, error) {
	t.Helper()
	if opts.Staleness > 0 {
		back = back.(Configurable).WithOptions(func(o *runtime.Options) { o.ElasticTag = tagElastic })
	}
	x := sparse.NewPanel(b.Rows, b.Cols)
	factory, err := handlerFactory(algo, p, model, b, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]runtime.Handler, p.Layout.Size())
	_, err = back.Run(p.Layout.Size(), model.Net(), func(rank int) runtime.Handler {
		h := factory(rank)
		if wrap != nil {
			h = wrap(h)
		}
		hs[rank] = h
		return h
	})
	return hs, err
}

func releaseRanks(hs []runtime.Handler) {
	for _, h := range hs {
		if r, ok := h.(stateReleaser); ok {
			r.releaseState()
		}
	}
}

// zGatherProbe is a baseline rank that records every inter-grid lsum merge
// key lying off its own grid's path before processing the message.
type zGatherProbe struct {
	*base3dRank
	offPath *[]int
}

func (h zGatherProbe) OnMessage(ctx *runtime.Ctx, m runtime.Msg) {
	if m.Tag == tagZGatherL {
		for _, k := range m.Data.(*vecBundle).Ks {
			if h.sg.SlotOf[k] < 0 {
				*h.offPath = append(*h.offPath, k)
			}
		}
	}
	h.base3dRank.OnMessage(ctx, m)
}

// TestBaselineMergeShipsOnlyPartnerRows pins the baseline's inter-grid
// lsum merge to the partner's path. A network straggler on grid 1 makes its
// other ranks force the L phase closed while they still hold partial sums
// of their own leaf rows; those rows lie off grid 0's path, so the merge
// bundle must leave them behind (grid 0 has no slot to store them in).
func TestBaselineMergeShipsOnlyPartnerRows(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 15), 3, 8)
	p := pl.plan(t, grid.Layout{Px: 2, Py: 2, Pz: 2}, ctree.Binary)
	b := randPanel(rand.New(rand.NewSource(13)), pl.m.N, 1)
	for _, rank := range []int{4, 5, 6, 7} {
		var off []int
		plan := &fault.Plan{Seed: 9, NetDelay: map[int]float64{rank: 5e-3}}
		hs, err := runRanks(t, p, machine.CoriHaswell(), Baseline3D,
			SimBackend{Opts: runtime.Options{Faults: plan}}, b,
			SolveOpts{Staleness: 4},
			func(h runtime.Handler) runtime.Handler {
				return zGatherProbe{base3dRank: h.(*base3dRank), offPath: &off}
			})
		forced := 0
		for _, h := range hs {
			forced += h.(zGatherProbe).st.counts.forcedTicks
		}
		releaseRanks(hs)
		if err != nil {
			t.Fatalf("straggler rank %d: %v", rank, err)
		}
		if forced == 0 {
			t.Fatalf("straggler rank %d: nothing forced — the case is vacuous", rank)
		}
		if len(off) > 0 {
			t.Fatalf("straggler rank %d: merge bundles carried supernodes %v, off the receiving grid's path", rank, off)
		}
	}
}

// TestArenaCoversGoldenSolves checks the schedule's arena bound on every
// golden configuration: no working panel of a solve falls back to the
// heap. The DES leg covers the engine goldens; the pool leg forces the
// parallel wave precompute (chunk 1), whose destinations come from the
// same reservation.
func TestArenaCoversGoldenSolves(t *testing.T) {
	check := func(name string, p *dist.Plan, tc schedCase, back Backend, b *sparse.Panel, opts SolveOpts) {
		t.Helper()
		hs, err := runRanks(t, p, tc.model, tc.algo, back, b, opts, nil)
		spills := 0
		for _, h := range hs {
			var c *rankCore
			switch h := h.(type) {
			case *new3dRank:
				c = &h.rankCore
			case *base3dRank:
				c = &h.rankCore
			case *gpuRank:
				c = &h.rankCore
			}
			spills += c.st.arena.spills
		}
		releaseRanks(hs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spills != 0 {
			t.Errorf("%s: %d working panels fell back to the heap", name, spills)
		}
	}
	for _, gc := range goldenCases(t) {
		check(gc.name, gc.pl.plan(t, gc.tc.l, gc.tc.kind), gc.tc, SimBackend{}, gc.b, SolveOpts{})
	}
	pool := PoolBackend{Pool: runtime.Pool{Timeout: 30 * time.Second}}
	pl := schedMatrices(t)["s2d"]
	cori := machine.CoriHaswell()
	cases := append(schedCases(),
		schedCase{"one-rank", Proposed3D, grid.Layout{Px: 1, Py: 1, Pz: 1}, ctree.Binary, cori, 2},
		schedCase{"one-rank-per-grid", Proposed3D, grid.Layout{Px: 1, Py: 1, Pz: 2}, ctree.Binary, cori, 1})
	for _, tc := range cases {
		if tc.algo == GPUSingle || tc.algo == GPUMulti {
			continue // simulation-only
		}
		b := randPanel(rand.New(rand.NewSource(300)), pl.m.N, tc.nrhs)
		check("pool/"+tc.name, pl.plan(t, tc.l, tc.kind), tc, pool, b, SolveOpts{levelChunk: 1})
	}
}

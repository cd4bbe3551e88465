package trsv

import (
	"testing"

	"sptrsv/internal/ctree"
	"sptrsv/internal/dist"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/snode"
	"sptrsv/internal/sparse"
)

// storeEntry is a column-list entry resolved to what it names: the block
// panel and the slot of the row it accumulates into.
type storeEntry struct {
	val  *sparse.Panel
	slot int32
}

// TestRankBlockStoreCoversPlan checks the solve's block store against the
// block structure it packs. For every algorithm × layout × tree kind, the
// per-rank column lists of each grid hold every block the grid's path
// applies exactly once, on the block's owner, in the order of the block
// structure — LBlocks[K] for an L column, ascending rows for a U column —
// which fixes each partial sum's accumulation order; and each rank's
// reduction parents are those of its algorithm's trees. Every factor panel
// lies inside the packed arrays.
func TestRankBlockStoreCoversPlan(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(20, 20, 31), 3, 8)
	checkStorePacked(t, pl.m)
	b := sparse.NewPanel(pl.m.N, 1)
	x := sparse.NewPanel(pl.m.N, 1)
	cpu := []grid.Layout{{Px: 1, Py: 1, Pz: 1}, {Px: 2, Py: 3, Pz: 1}, {Px: 2, Py: 2, Pz: 2}, {Px: 4, Py: 4, Pz: 4}}
	for _, tc := range []struct {
		algo    Algorithm
		model   *machine.Model
		layouts []grid.Layout
	}{
		{Proposed3D, machine.CoriHaswell(), cpu},
		{Baseline3D, machine.CoriHaswell(), cpu},
		{GPUSingle, machine.PerlmutterGPU(), []grid.Layout{{Px: 1, Py: 1, Pz: 1}, {Px: 1, Py: 1, Pz: 4}}},
		{GPUMulti, machine.PerlmutterGPU(), []grid.Layout{{Px: 2, Py: 1, Pz: 2}, {Px: 4, Py: 1, Pz: 4}}},
	} {
		for _, l := range tc.layouts {
			for _, kind := range []ctree.Kind{ctree.Flat, ctree.Binary} {
				p := pl.plan(t, l, kind)
				factory, err := handlerFactory(tc.algo, p, tc.model, b, x, SolveOpts{})
				if err != nil {
					t.Fatal(err)
				}
				for z, gp := range p.Grids {
					want := wantColumnLists(p, gp)
					red := gp.Reduce
					if tc.algo == Baseline3D {
						red = gp.Base.Reduce
					}
					for r2d := range gp.Ranks {
						c := factory(p.GlobalRank(z, r2d))
						if tc.algo == Baseline3D {
							// The baseline installs its parents when it starts.
							c.parent = gp.Base.Ranks[r2d].Parent
						}
						checkRankLists(t, c, want[r2d], red)
						c.releaseState()
					}
				}
			}
		}
	}
}

// wantColumnLists derives each rank's column lists of grid gp from the
// per-supernode block views, indexed [r2d][sweep][slot].
func wantColumnLists(p *dist.Plan, gp *dist.GridPlan) [][2][][]storeEntry {
	m, l := p.M, p.Layout
	want := make([][2][][]storeEntry, l.GridSize())
	for r := range want {
		for sw := range want[r] {
			want[r][sw] = make([][]storeEntry, len(gp.Sns))
		}
	}
	add := func(sw, r2d int, col int32, val *sparse.Panel, row int) {
		want[r2d][sw][col] = append(want[r2d][sw][col], storeEntry{val, gp.SlotOf[row]})
	}
	for s, k := range gp.Sns {
		for i := range m.LBlocks[k] {
			blk := &m.LBlocks[k][i]
			add(sweepL, p.Rank2D(blk.I%l.Px, k%l.Py), int32(s), blk.Val, blk.I)
		}
	}
	for _, i := range gp.Sns { // ascending rows: the U columns' order
		for _, blk := range m.UBlocks[i] {
			if gp.OnPath[blk.J] {
				add(sweepU, p.Rank2D(i%l.Px, blk.J%l.Py), gp.SlotOf[blk.J], blk.Val, i)
			}
		}
	}
	return want
}

// checkRankLists compares one rank's column lists and parents with the
// derived lists and the algorithm's reduction trees.
func checkRankLists(t *testing.T, c *rankCore, want [2][][]storeEntry, red [2][]*ctree.Tree) {
	t.Helper()
	for sw := range want {
		for s, k := range c.gp.Sns {
			got := c.rd.Col(sw, int32(s))
			if len(got) != len(want[sw][s]) {
				t.Fatalf("%v rank %d sweep %d column %d: %d blocks, want %d",
					c.p.Layout, c.rank, sw, k, len(got), len(want[sw][s]))
			}
			for i, e := range got {
				if w := want[sw][s][i]; &c.store.Panels[e.B] != w.val || e.Slot != w.slot {
					t.Fatalf("%v rank %d sweep %d column %d: entry %d is block %d into slot %d, want slot %d",
						c.p.Layout, c.rank, sw, k, i, e.B, e.Slot, w.slot)
				}
			}
			wantParent := int32(-2)
			if tr := red[sw][k]; tr.Contains(c.r2d) {
				wantParent = int32(tr.Parent(c.r2d))
			}
			if c.parent[sw][s] != wantParent {
				t.Fatalf("%v rank %d sweep %d row %d: parent %d, want %d",
					c.p.Layout, c.rank, sw, k, c.parent[sw][s], wantParent)
			}
		}
	}
}

// checkStorePacked checks that the store's panels tile Vals in order and
// that every per-supernode view — L and U blocks with their index lists,
// and both diagonal inverses — is a distinct store panel, each block in
// its column's range.
func checkStorePacked(t *testing.T, m *snode.Matrix) {
	t.Helper()
	st := &m.Store
	at := make(map[*sparse.Panel]int32, len(st.Panels))
	off := 0
	for i := range st.Panels {
		p := &st.Panels[i]
		n := p.Rows * p.Cols
		if n == 0 || len(p.Data) != n || &p.Data[0] != &st.Vals[off] {
			t.Fatalf("panel %d (%d×%d) does not sit at offset %d of Vals", i, p.Rows, p.Cols, off)
		}
		off += n
		at[p] = int32(i)
	}
	if off != len(st.Vals) {
		t.Fatalf("panels cover %d of %d values", off, len(st.Vals))
	}
	used := map[*sparse.Panel]bool{}
	view := func(p *sparse.Panel, what string, k int) int32 {
		b, ok := at[p]
		if !ok || used[p] {
			t.Fatalf("%s of supernode %d: in store %v, seen before %v", what, k, ok, used[p])
		}
		used[p] = true
		return b
	}
	sameIdx := func(b int32, idx []int, what string, k int) {
		got := st.Index(b)
		if len(got) != len(idx) || &got[0] != &idx[0] {
			t.Fatalf("%s of supernode %d: index list not the store's", what, k)
		}
	}
	for k := 0; k < m.SnCount; k++ {
		view(m.LDiagInv[k], "LDiagInv", k)
		view(m.UDiagInv[k], "UDiagInv", k)
		lo, hi := st.LCol(k)
		for i := range m.LBlocks[k] {
			blk := &m.LBlocks[k][i]
			if b := view(blk.Val, "L block", k); b != lo+int32(i) || st.Row(b) != blk.I {
				t.Fatalf("L block (%d,%d) is store block %d, column range [%d,%d)", blk.I, k, b, lo, hi)
			} else {
				sameIdx(b, blk.Rows, "L block", k)
			}
		}
		for i := range m.UBlocks[k] {
			blk := &m.UBlocks[k][i]
			b := view(blk.Val, "U block", k)
			if lo, hi := st.UCol(blk.J); b < lo || b >= hi || st.Row(b) != k {
				t.Fatalf("U block (%d,%d) is store block %d, column range [%d,%d)", k, blk.J, b, lo, hi)
			}
			sameIdx(b, blk.Cols, "U block", k)
		}
	}
	if len(used) != len(st.Panels) {
		t.Fatalf("views name %d of %d store panels", len(used), len(st.Panels))
	}
}

package dist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sptrsv/internal/ctree"
	"sptrsv/internal/factor"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/order"
	"sptrsv/internal/snode"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

func buildFactors(t *testing.T, a *sparse.CSR, depth, maxSn int) (*snode.Matrix, *order.Tree) {
	t.Helper()
	tr := order.NestedDissection(a, depth)
	ap := a.Permute(tr.Perm)
	s, err := symbolic.Analyze(ap, symbolic.Options{MaxSupernode: maxSn, Boundaries: grid.Boundaries(tr)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := factor.Factorize(ap, s)
	if err != nil {
		t.Fatal(err)
	}
	m, err := snode.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

func newPlan(t *testing.T, l grid.Layout, kind ctree.Kind) *Plan {
	t.Helper()
	m, tr := buildFactors(t, gen.S2D9pt(20, 20, 71), 3, 8)
	p, err := New(m, tr, l, kind)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPathSupernodesAscendingAndOnPath(t *testing.T) {
	p := newPlan(t, grid.Layout{Px: 2, Py: 3, Pz: 4}, ctree.Binary)
	for _, gp := range p.Grids {
		for i := 1; i < len(gp.Sns); i++ {
			if gp.Sns[i] <= gp.Sns[i-1] {
				t.Fatal("Sns not ascending")
			}
		}
		for _, k := range gp.Sns {
			if !gp.OnPath[k] || gp.NodeOf[k] < 0 {
				t.Fatal("OnPath/NodeOf inconsistent")
			}
		}
	}
}

func TestRowListsMirrorBlocks(t *testing.T) {
	p := newPlan(t, grid.Layout{Px: 2, Py: 2, Pz: 2}, ctree.Binary)
	// RowLists[I] must contain exactly the K with a block (I, K).
	count := 0
	for k := 0; k < p.M.SnCount; k++ {
		for _, blk := range p.M.LBlocks[k] {
			found := false
			for _, kk := range p.RowLists[blk.I] {
				if kk == k {
					found = true
				}
			}
			if !found {
				t.Fatalf("RowLists missing (%d,%d)", blk.I, k)
			}
			count++
		}
	}
	total := 0
	for _, l := range p.RowLists {
		total += len(l)
	}
	if total != count {
		t.Fatalf("RowLists has %d entries, blocks %d", total, count)
	}
}

func TestTreesCoverBlockOwners(t *testing.T) {
	p := newPlan(t, grid.Layout{Px: 3, Py: 2, Pz: 2}, ctree.Binary)
	l := p.Layout
	for _, gp := range p.Grids {
		for _, k := range gp.Sns {
			for _, blk := range p.M.LBlocks[k] {
				owner := p.Rank2D(blk.I%l.Px, k%l.Py)
				if !gp.Bcast[SweepL][k].Contains(owner) {
					t.Fatalf("LBcast(%d) missing owner of block (%d,%d)", k, blk.I, k)
				}
			}
			for _, j := range gp.RowSns[k] {
				owner := p.Rank2D(k%l.Px, j%l.Py)
				if !gp.Reduce[SweepL][k].Contains(owner) {
					t.Fatalf("LReduce(%d) missing owner of block (%d,%d)", k, k, j)
				}
			}
			if gp.Bcast[SweepL][k].Root() != p.DiagRank2D(k) {
				t.Fatalf("LBcast(%d) not rooted at diagonal", k)
			}
			if gp.Reduce[SweepU][k].Root() != p.DiagRank2D(k) {
				t.Fatalf("UReduce(%d) not rooted at diagonal", k)
			}
		}
	}
}

func TestRankDataPartitionsBlocks(t *testing.T) {
	p := newPlan(t, grid.Layout{Px: 2, Py: 3, Pz: 2}, ctree.Binary)
	for _, gp := range p.Grids {
		// Every grid block appears in exactly one rank's L column lists.
		total := 0
		for _, rd := range gp.Ranks {
			total += len(rd.Blocks[SweepL])
		}
		want := 0
		for _, k := range gp.Sns {
			want += len(p.M.LBlocks[k])
		}
		if total != want {
			t.Fatalf("grid %d: L column lists hold %d blocks, want %d", gp.Z, total, want)
		}
		// MyDiagSns partitions the path supernodes.
		seen := map[int]bool{}
		for _, rd := range gp.Ranks {
			for _, k := range rd.MyDiagSns {
				if seen[k] {
					t.Fatalf("supernode %d owned twice", k)
				}
				seen[k] = true
			}
		}
		if len(seen) != len(gp.Sns) {
			t.Fatalf("grid %d: diag ownership covers %d of %d", gp.Z, len(seen), len(gp.Sns))
		}
	}
}

func TestPendingCountsMatchTreeStructure(t *testing.T) {
	p := newPlan(t, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary)
	for _, gp := range p.Grids {
		for slot, k := range gp.Sns {
			// Sum over ranks of row k's L-sweep Pending must equal total L
			// blocks in row k plus total reduce-tree edges (each child sends
			// one message, each message is one pending unit at its parent).
			sum := 0
			for _, rd := range gp.Ranks {
				sum += int(rd.Pending[SweepL][slot])
			}
			blocks := len(gp.RowSns[k])
			edges := gp.Reduce[SweepL][k].Size() - 1
			if sum != blocks+edges {
				t.Fatalf("grid %d sn %d: pending sum %d != blocks %d + edges %d", gp.Z, k, sum, blocks, edges)
			}
		}
	}
}

// TestPendingIsLocalOnOneColumnGrids pins the identity the GPU handler's
// counters rest on: with Py = 1 every block of row K lives on K's diagonal
// rank, each reduction tree is that rank alone, so the counter templates
// equal the rank's own block counts per row (zero on other ranks' rows).
func TestPendingIsLocalOnOneColumnGrids(t *testing.T) {
	for _, l := range []grid.Layout{{Px: 1, Py: 1, Pz: 4}, {Px: 2, Py: 1, Pz: 2}, {Px: 4, Py: 1, Pz: 1}} {
		p := newPlan(t, l, ctree.Binary)
		for _, gp := range p.Grids {
			for r2d, rd := range gp.Ranks {
				for sw := range rd.Pending {
					local := rd.Targets(sw, len(gp.Sns))
					for slot, k := range gp.Sns {
						if rd.Pending[sw][slot] != local[slot] {
							t.Fatalf("%+v grid %d rank %d sweep %d sn %d: pending %d, local blocks %d",
								l, gp.Z, r2d, sw, k, rd.Pending[sw][slot], local[slot])
						}
					}
				}
			}
		}
	}
}

// TestLocalCountsMatchRowListsOnOneRankGrids pins the identity that lets
// the GPU handler run gpu-single (Px=Py=1) on its per-rank block counts:
// on a one-rank grid that rank holds every on-path block, so its count of
// blocks in row K is the number of on-path supernodes feeding K in each
// sweep. The matrices are those of the trsv engine goldens.
func TestLocalCountsMatchRowListsOnOneRankGrids(t *testing.T) {
	for _, mc := range []struct {
		name         string
		a            *sparse.CSR
		depth, maxSn int
	}{
		{"s2d", gen.S2D9pt(20, 20, 31), 3, 8},
		{"rand", gen.RandomDD(rand.New(rand.NewSource(200)), 240, 0.06), 2, 10},
		{"s2d-xl", gen.S2D9pt(26, 26, 32), 2, 12},
	} {
		m, tr := buildFactors(t, mc.a, mc.depth, mc.maxSn)
		for _, pz := range []int{1, 2, 4} {
			p, err := New(m, tr, grid.Layout{Px: 1, Py: 1, Pz: pz}, ctree.Binary)
			if err != nil {
				t.Fatal(err)
			}
			for _, gp := range p.Grids {
				rd := gp.Ranks[0]
				lo, up := rd.Targets(SweepL, len(gp.Sns)), rd.Targets(SweepU, len(gp.Sns))
				for slot, k := range gp.Sns {
					if int(lo[slot]) != len(gp.RowSns[k]) || int(up[slot]) != len(gp.URowSns[k]) {
						t.Fatalf("%s Pz=%d grid %d sn %d: local L/U %d/%d, row lists %d/%d", mc.name, pz, gp.Z, k,
							lo[slot], up[slot], len(gp.RowSns[k]), len(gp.URowSns[k]))
					}
				}
			}
		}
	}
}

func TestRecvTotalsMatchSendTotals(t *testing.T) {
	// Across a grid, total expected receives must equal total messages the
	// trees will carry: every tree edge carries exactly one message per
	// solve phase.
	p := newPlan(t, grid.Layout{Px: 2, Py: 3, Pz: 2}, ctree.Binary)
	for _, gp := range p.Grids {
		lRecv, uRecv := 0, 0
		for _, rd := range gp.Ranks {
			lRecv += rd.Recv[SweepL]
			uRecv += rd.Recv[SweepU]
		}
		lEdges, uEdges := 0, 0
		for _, k := range gp.Sns {
			lEdges += gp.Bcast[SweepL][k].Size() - 1 + gp.Reduce[SweepL][k].Size() - 1
			uEdges += gp.Bcast[SweepU][k].Size() - 1 + gp.Reduce[SweepU][k].Size() - 1
		}
		if lRecv != lEdges || uRecv != uEdges {
			t.Fatalf("grid %d: recv totals (%d,%d) != tree edges (%d,%d)", gp.Z, lRecv, uRecv, lEdges, uEdges)
		}
	}
}

func TestBaselineStructures(t *testing.T) {
	p := newPlan(t, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Flat)
	if err := p.BuildBaseline(); err != nil {
		t.Fatal(err)
	}
	if err := p.BuildBaseline(); err != nil { // idempotent
		t.Fatal(err)
	}
	for _, gp := range p.Grids {
		b := gp.Base
		if b == nil {
			t.Fatal("baseline not built")
		}
		if b.S != trailingZerosCapped(gp.Z, p.Map.L) {
			t.Fatalf("grid %d: S=%d", gp.Z, b.S)
		}
		for _, k := range gp.Sns {
			// Group trees must be ordered by node and cover every block owner.
			prev := -1
			memberCount := 0
			for _, gt := range b.BcastGroups[SweepL][k] {
				if gt.Node <= prev {
					t.Fatalf("group trees out of order for sn %d", k)
				}
				prev = gt.Node
				memberCount += gt.Tree.Size()
			}
			// Leaf supernodes have no gather columns.
			if gp.NodeOf[k] == 0 && len(b.GatherCols[k]) != 0 {
				t.Fatalf("leaf sn %d has gather cols %v", k, b.GatherCols[k])
			}
		}
	}
}

func TestSupernodeBoundaryViolationDetected(t *testing.T) {
	// Analyzing WITHOUT boundaries should produce supernodes that straddle
	// tree nodes, which New must reject.
	a := gen.S2D9pt(20, 20, 72)
	tr := order.NestedDissection(a, 3)
	ap := a.Permute(tr.Perm)
	s, err := symbolic.Analyze(ap, symbolic.Options{MaxSupernode: 64})
	if err != nil {
		t.Fatal(err)
	}
	f, err := factor.Factorize(ap, s)
	if err != nil {
		t.Fatal(err)
	}
	m, err := snode.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(m, tr, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary); err == nil {
		t.Skip("supernodes happened to align; no violation to detect")
	}
}

func TestPlanRejectsBadLayouts(t *testing.T) {
	m, tr := buildFactors(t, gen.S2D9pt(12, 12, 73), 2, 8)
	if _, err := New(m, tr, grid.Layout{Px: 2, Py: 2, Pz: 3}, ctree.Binary); err == nil {
		t.Fatal("Pz=3 accepted")
	}
	if _, err := New(m, tr, grid.Layout{Px: 2, Py: 2, Pz: 8}, ctree.Binary); err == nil {
		t.Fatal("Pz beyond tree capacity accepted")
	}
	if _, err := New(m, tr, grid.Layout{Px: 0, Py: 2, Pz: 1}, ctree.Binary); err == nil {
		t.Fatal("Px=0 accepted")
	}
}

func TestGatherColsProperty(t *testing.T) {
	// Property: every gather column of a supernode corresponds to at least
	// one global block strictly below its node, and vice versa.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := gen.RandomDD(rng, 60+rng.Intn(80), 0.08)
		tr := order.NestedDissection(a, 2)
		ap := a.Permute(tr.Perm)
		s, err := symbolic.Analyze(ap, symbolic.Options{MaxSupernode: 6, Boundaries: grid.Boundaries(tr)})
		if err != nil {
			return false
		}
		f, err := factor.Factorize(ap, s)
		if err != nil {
			return false
		}
		m, err := snode.Build(f)
		if err != nil {
			return false
		}
		p, err := New(m, tr, grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Flat)
		if err != nil {
			return false
		}
		if err := p.BuildBaseline(); err != nil {
			return false
		}
		for _, gp := range p.Grids {
			for _, k := range gp.Sns {
				ni := gp.NodeOf[k]
				want := map[int]bool{}
				for _, j := range p.RowLists[k] {
					if !p.withinNode(gp, j, ni) {
						want[j%p.Layout.Py] = true
					}
				}
				got := gp.Base.GatherCols[k]
				if len(got) != len(want) {
					return false
				}
				for _, c := range got {
					if !want[c] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

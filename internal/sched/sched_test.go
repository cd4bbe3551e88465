package sched

import (
	"testing"

	"sptrsv/internal/ctree"
	"sptrsv/internal/dist"
	"sptrsv/internal/factor"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/order"
	"sptrsv/internal/snode"
	"sptrsv/internal/symbolic"
)

func buildPlan(t *testing.T, l grid.Layout, kind ctree.Kind) *dist.Plan {
	t.Helper()
	a := gen.S2D9pt(20, 20, 41)
	tr := order.NestedDissection(a, 3)
	ap := a.Permute(tr.Perm)
	s, err := symbolic.Analyze(ap, symbolic.Options{MaxSupernode: 8, Boundaries: grid.Boundaries(tr)})
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
	p, err := dist.New(m, tr, l, kind)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestScheduleMatchesPlan checks the dense templates against the plan
// structure they compress: slot numbering and widths must agree entry by
// entry with the plan, and every diagonal task must be layered.
func TestScheduleMatchesPlan(t *testing.T) {
	for _, tc := range []struct {
		l    grid.Layout
		kind ctree.Kind
	}{
		{grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary},
		{grid.Layout{Px: 2, Py: 3, Pz: 1}, ctree.Flat},
		{grid.Layout{Px: 1, Py: 1, Pz: 8}, ctree.Binary},
	} {
		p := buildPlan(t, tc.l, tc.kind)
		s, err := Of(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Grids) != len(p.Grids) {
			t.Fatalf("%+v: %d grids scheduled, plan has %d", tc.l, len(s.Grids), len(p.Grids))
		}
		for z, g := range s.Grids {
			gp := p.Grids[z]
			for slot, k := range gp.Sns {
				if int(g.SlotOf[k]) != slot {
					t.Fatalf("grid %d sn %d: slot %d, want %d", z, k, g.SlotOf[k], slot)
				}
				if int(g.Width[slot]) != p.M.SnWidth(k) {
					t.Fatalf("grid %d sn %d: width %d, want %d", z, k, g.Width[slot], p.M.SnWidth(k))
				}
			}
			for r2d, r := range g.Ranks {
				rd := gp.Ranks[r2d]
				for sw := range r.KidPtr {
					// Every diagonal slot must be layered into some level.
					levelOf, levels, _ := levelSweep(p, gp, g, r2d, sw)
					for _, k := range rd.MyDiagSns {
						if lv := levelOf[g.SlotOf[k]]; lv < 0 || int(lv) >= levels {
							t.Fatalf("grid %d rank %d sweep %d: diag %d at level %d of %d", z, r2d, sw, k, lv, levels)
						}
					}
				}
				if r.ArenaPerRHS < 0 || r.Panels < 0 {
					t.Fatalf("grid %d rank %d: negative arena bound", z, r2d)
				}
			}
		}
	}
}

// TestLevelMonotonicity: along any intra-rank L dependency chain the
// levels must strictly increase — a diagonal solve that consumes another
// local diagonal's block products sits at a deeper level.
func TestLevelMonotonicity(t *testing.T) {
	p := buildPlan(t, grid.Layout{Px: 2, Py: 2, Pz: 2}, ctree.Binary)
	s, err := Of(p)
	if err != nil {
		t.Fatal(err)
	}
	for z, g := range s.Grids {
		gp := p.Grids[z]
		for r2d := range g.Ranks {
			rd := gp.Ranks[r2d]
			levelOf, _, _ := levelSweep(p, gp, g, r2d, dist.SweepL)
			for _, k := range rd.MyDiagSns {
				ks := g.SlotOf[k]
				for _, e := range rd.Col(dist.SweepL, ks) {
					i := g.Sns[e.Slot]
					if p.DiagRank2D(i) != r2d {
						continue
					}
					if levelOf[e.Slot] <= levelOf[ks] {
						t.Fatalf("grid %d rank %d: diag %d (level %d) feeds diag %d (level %d)",
							z, r2d, k, levelOf[ks], i, levelOf[e.Slot])
					}
				}
			}
		}
	}
}

// TestSlotLinksMatchTrees checks the slot-indexed tree links the solve
// reads against the trees they are derived from, for every member of
// every tree: the schedule's broadcast fan-outs and memberships, the
// plan's reduction parents, and the baseline's (-1 at the root, -2 off the
// tree).
func TestSlotLinksMatchTrees(t *testing.T) {
	for _, tc := range []struct {
		l    grid.Layout
		kind ctree.Kind
	}{
		{grid.Layout{Px: 2, Py: 2, Pz: 4}, ctree.Binary},
		{grid.Layout{Px: 4, Py: 4, Pz: 2}, ctree.Binary},
		{grid.Layout{Px: 4, Py: 4, Pz: 1}, ctree.Flat},
		{grid.Layout{Px: 2, Py: 3, Pz: 1}, ctree.Flat},
		{grid.Layout{Px: 4, Py: 1, Pz: 2}, ctree.Binary},
	} {
		p := buildPlan(t, tc.l, tc.kind)
		s, err := Of(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.BuildBaseline(); err != nil {
			t.Fatal(err)
		}
		parent := func(tr *ctree.Tree, r2d int) int32 {
			if !tr.Contains(r2d) {
				return -2
			}
			return int32(tr.Parent(r2d))
		}
		for z, g := range s.Grids {
			gp := p.Grids[z]
			for r2d, r := range g.Ranks {
				for sw := range r.KidPtr {
					for slot, k := range gp.Sns {
						s32 := int32(slot)
						bc := gp.Bcast[sw][k]
						if r.InBcast(sw, s32) != bc.Contains(r2d) {
							t.Fatalf("%+v grid %d rank %d sweep %d sn %d: membership %v, tree says %v",
								tc.l, z, r2d, sw, k, r.InBcast(sw, s32), bc.Contains(r2d))
						}
						got, want := r.BcastKids(sw, s32), bc.Children(r2d)
						if len(got) != len(want) {
							t.Fatalf("%+v grid %d rank %d sweep %d sn %d: %d kids, want %d",
								tc.l, z, r2d, sw, k, len(got), len(want))
						}
						for i, c := range want {
							if int(got[i]) != c {
								t.Fatalf("%+v grid %d rank %d sweep %d sn %d: kid %d is %d, want %d",
									tc.l, z, r2d, sw, k, i, got[i], c)
							}
						}
						if got, want := gp.Ranks[r2d].Parent[sw][slot], parent(gp.Reduce[sw][k], r2d); got != want {
							t.Fatalf("%+v grid %d rank %d sweep %d sn %d: parent %d, want %d",
								tc.l, z, r2d, sw, k, got, want)
						}
						if got, want := gp.Base.Ranks[r2d].Parent[sw][slot], parent(gp.Base.Reduce[sw][k], r2d); got != want {
							t.Fatalf("%+v grid %d rank %d sweep %d sn %d: baseline parent %d, want %d",
								tc.l, z, r2d, sw, k, got, want)
						}
					}
				}
			}
		}
	}
}

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

// TestScheduleMatchesPlan checks every dense template against the plan
// structure it compresses: slot numbering, widths, counter templates,
// broadcast fan-outs and reduction parents must agree entry by entry with
// the map/tree forms they are derived from.
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
				for slot, k := range gp.Sns {
					if int(r.PendingL[slot]) != rd.PendingL[k] || int(r.PendingU[slot]) != rd.PendingU[k] {
						t.Fatalf("grid %d rank %d sn %d: pending template mismatch", z, r2d, k)
					}
					wantKids := gp.LBcast[k].Children(r2d)
					if !gp.LBcast[k].Contains(r2d) {
						wantKids = nil
					}
					if len(r.LBcastKids[slot]) != len(wantKids) {
						t.Fatalf("grid %d rank %d sn %d: %d L kids, want %d",
							z, r2d, k, len(r.LBcastKids[slot]), len(wantKids))
					}
					for i, c := range wantKids {
						if int(r.LBcastKids[slot][i]) != c {
							t.Fatalf("grid %d rank %d sn %d: L kid %d is %d, want %d",
								z, r2d, k, i, r.LBcastKids[slot][i], c)
						}
					}
					if r.MemberL[slot] != gp.LReduce[k].Contains(r2d) {
						t.Fatalf("grid %d rank %d sn %d: L membership mismatch", z, r2d, k)
					}
				}
				// Every diagonal slot must be layered into some level.
				for _, ds := range r.DiagSlot {
					if r.LLevelOf[ds] < 0 || r.ULevelOf[ds] < 0 {
						t.Fatalf("grid %d rank %d: diag slot %d unlayered", z, r2d, ds)
					}
					if int(r.LLevelOf[ds]) >= r.LLevels || int(r.ULevelOf[ds]) >= r.ULevels {
						t.Fatalf("grid %d rank %d: diag slot %d level out of range", z, r2d, ds)
					}
				}
				if len(rd.MyDiagSns) != len(r.DiagSlot) {
					t.Fatalf("grid %d rank %d: %d diag slots, plan has %d",
						z, r2d, len(r.DiagSlot), len(rd.MyDiagSns))
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
		for r2d, r := range g.Ranks {
			rd := gp.Ranks[r2d]
			for _, k := range rd.MyDiagSns {
				ks := g.SlotOf[k]
				for _, blk := range rd.ColL[k] {
					ts := g.SlotOf[blk.I]
					if ts < 0 || p.DiagRank2D(blk.I) != r2d {
						continue
					}
					if r.LLevelOf[ts] <= r.LLevelOf[ks] {
						t.Fatalf("grid %d rank %d: diag %d (level %d) feeds diag %d (level %d)",
							z, r2d, k, r.LLevelOf[ks], blk.I, r.LLevelOf[ts])
					}
				}
			}
		}
	}
}

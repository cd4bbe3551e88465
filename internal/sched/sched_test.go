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
// structure it compresses: slot numbering, widths and broadcast fan-outs
// must agree entry by entry with the map/tree forms they are derived
// from, and every diagonal task must be layered.
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
				for sw := range r.BcastKids {
					for slot, k := range gp.Sns {
						wantKids := gp.Bcast[sw][k].Children(r2d)
						if !gp.Bcast[sw][k].Contains(r2d) {
							wantKids = nil
						}
						if len(r.BcastKids[sw][slot]) != len(wantKids) {
							t.Fatalf("grid %d rank %d sweep %d sn %d: %d kids, want %d",
								z, r2d, sw, k, len(r.BcastKids[sw][slot]), len(wantKids))
						}
						for i, c := range wantKids {
							if int(r.BcastKids[sw][slot][i]) != c {
								t.Fatalf("grid %d rank %d sweep %d sn %d: kid %d is %d, want %d",
									z, r2d, sw, k, i, r.BcastKids[sw][slot][i], c)
							}
						}
					}
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
				for _, blk := range rd.ColL[k] {
					ts := g.SlotOf[blk.I]
					if ts < 0 || p.DiagRank2D(blk.I) != r2d {
						continue
					}
					if levelOf[ts] <= levelOf[ks] {
						t.Fatalf("grid %d rank %d: diag %d (level %d) feeds diag %d (level %d)",
							z, r2d, k, levelOf[ks], blk.I, levelOf[ts])
					}
				}
			}
		}
	}
}

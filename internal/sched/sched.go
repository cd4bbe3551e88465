// Package sched derives a level/DAG execution schedule from a dist.Plan:
// for every rank, the dependency DAG over its supernode tasks (diag_y,
// diag_x, l_block, u_block) for both the L and the U sweep, topologically
// layered into levels, together with the dense per-rank structures the
// executor in internal/trsv runs on — slot numbering, precomputed
// broadcast fan-outs, and the arena capacity that makes the per-task hot
// path allocation-free.
//
// The schedule is derived once per plan and cached on it (Plan.
// CachedSchedule, the same sync.Once pattern as BuildBaseline), so
// concurrent solves share one immutable schedule. Nothing here depends on
// the right-hand-side count: panel capacities are recorded per rhs column
// and scaled by the executor.
//
// The level layering is the classic forward/backward level-set
// construction over the intra-rank dependency edges:
//
//	diag_y(K)      ← l_block(J→K) for every local block feeding K
//	l_block(K→I)   ← diag_y(K) when this rank solves the diagonal of K
//
// (and the mirror for the U sweep). Cross-rank dependencies — broadcast
// arrivals and reduction messages — enter as level-0 sources; the
// executor's dynamic wavefront refines this static layering at run time
// without ever reordering tasks, so send order, clock charges and
// floating-point accumulation are fixed by message arrival order alone.
// internal/trsv runs every solve on this schedule.
package sched

import (
	"sync"

	"sptrsv/internal/dist"
)

// Grid is the per-grid part of the schedule: the slot numbering shared by
// every rank of the grid, plus dense per-slot structural templates.
type Grid struct {
	// SlotOf maps a global supernode to its slot — its index in the
	// grid's ascending on-path supernode list — or -1 when off-path.
	// Slots ascend with global supernode order, so an ascending slot scan
	// visits supernodes in ascending order.
	SlotOf []int32
	// Sns is the inverse mapping: slot → global supernode, ascending.
	Sns []int
	// Width is the supernode width per slot.
	Width []int32

	// LDepth and UDepth are the grid-global dependency depths of the two
	// sweeps: the length of the longest supernode chain over the grid's
	// on-path structure, counting diagonal solves. Unlike the per-rank
	// levels of levelSweep (which layer only intra-rank edges), these span
	// cross-rank dependencies too, so they are the level budget elastic
	// mode's staleness deadlines are measured against.
	LDepth, UDepth int

	// Ranks holds each 2D-local rank's schedule, indexed by row·Py+col.
	Ranks []*Rank
}

// Rank is one rank's precomputed schedule. Per-sweep templates are [2]
// arrays indexed by dist.SweepL and dist.SweepU.
type Rank struct {
	// KidPtr and Kids hold this rank's 2D-rank fan-outs in the
	// per-supernode broadcast trees in CSR form over the slots: slot s's
	// children in sweep sw are Kids[sw][KidPtr[sw][s]:KidPtr[sw][s+1]], in
	// tree-walk order; empty for slots whose tree this rank is not part
	// of. The solve reads these instead of querying the trees.
	KidPtr, Kids [2][]int32
	// member marks, by sweep, the slots whose broadcast tree this rank
	// belongs to (a bit set; see InBcast).
	member [2][]uint64

	// ArenaPerRHS is the panel storage the scheduled executor needs per
	// right-hand-side column for one solve (float64 count), and Panels
	// the matching panel-header count. Both are safe overestimates; the
	// executor falls back to the heap if a solve ever outgrows them.
	ArenaPerRHS int
	Panels      int

	// Pool is scratch storage owned by the executor (internal/trsv): a
	// free list of per-solve dense states for this rank. It lives on the
	// schedule so its lifetime is tied to the plan's.
	Pool sync.Pool
}

// BcastKids returns this rank's children in slot s's broadcast tree of
// sweep sw.
func (r *Rank) BcastKids(sw int, s int32) []int32 {
	ptr := r.KidPtr[sw]
	return r.Kids[sw][ptr[s]:ptr[s+1]]
}

// InBcast reports whether this rank belongs to slot s's broadcast tree of
// sweep sw.
func (r *Rank) InBcast(sw int, s int32) bool { return r.member[sw][s>>6]&(1<<(s&63)) != 0 }

// Schedule is the full level/DAG schedule of one plan.
type Schedule struct {
	Grids []*Grid
	stats Stats
}

// Stats summarizes the schedule for reports: totals over ranks.
type Stats struct {
	// Tasks is the total task count over all ranks and both sweeps
	// (diagonal solves plus block applies).
	Tasks int
	// MaxLevels is the deepest per-rank level count over both sweeps —
	// the longest intra-rank dependency chain.
	MaxLevels int
}

// Stats returns the schedule's summary, tallied when it was built.
func (s *Schedule) Stats() Stats { return s.stats }

// Of returns the plan's schedule, deriving it on first use and caching it
// on the plan.
func Of(p *dist.Plan) (*Schedule, error) {
	v, err := p.CachedSchedule(func(p *dist.Plan) (any, error) { return build(p) })
	if err != nil {
		return nil, err
	}
	return v.(*Schedule), nil
}

func build(p *dist.Plan) (*Schedule, error) {
	s := &Schedule{Grids: make([]*Grid, len(p.Grids))}
	for z, gp := range p.Grids {
		s.Grids[z] = buildGrid(p, gp, &s.stats)
	}
	return s, nil
}

func buildGrid(p *dist.Plan, gp *dist.GridPlan, st *Stats) *Grid {
	m := p.M
	n := len(gp.Sns)
	g := &Grid{
		SlotOf: gp.SlotOf,
		Sns:    gp.Sns,
		Width:  make([]int32, n),
	}
	for s, k := range gp.Sns {
		g.Width[s] = int32(m.SnWidth(k))
	}
	g.LDepth, g.UDepth = gridDepths(gp, g)
	g.Ranks = make([]*Rank, len(gp.Ranks))
	for r2d := range gp.Ranks {
		g.Ranks[r2d] = buildRank(p, gp, g, r2d, st)
	}
	return g
}

func buildRank(p *dist.Plan, gp *dist.GridPlan, g *Grid, r2d int, st *Stats) *Rank {
	n := len(gp.Sns)
	r := &Rank{}
	for sw := range r.KidPtr {
		ptr := make([]int32, n+1)
		member := make([]uint64, (n+63)/64)
		var kids []int32
		for s, k := range gp.Sns {
			if t := gp.Bcast[sw][k]; t.Contains(r2d) {
				member[s>>6] |= 1 << (s & 63)
				for _, c := range t.Children(r2d) {
					kids = append(kids, int32(c))
				}
			}
			ptr[s+1] = int32(len(kids))
		}
		r.KidPtr[sw], r.Kids[sw], r.member[sw] = ptr, append([]int32(nil), kids...), member
		_, levels, tasks := levelSweep(p, gp, g, r2d, sw)
		st.Tasks += tasks
		st.MaxLevels = max(st.MaxLevels, levels)
	}
	r.ArenaPerRHS, r.Panels = arenaSize(p, gp, g, r2d)
	return r
}

// gridDepths computes the grid-global longest dependency chains of the L
// and U sweeps in supernode steps. Supernode order is a topological order
// of both structures (RowSns[K] lists only J < K, URowSns[K] only J > K),
// so a single ascending (resp. descending) pass suffices.
func gridDepths(gp *dist.GridPlan, g *Grid) (lDepth, uDepth int) {
	n := len(gp.Sns)
	if n == 0 {
		return 0, 0
	}
	lev := make([]int32, n)
	var maxL int32
	for s, k := range gp.Sns {
		for _, j := range gp.RowSns[k] {
			if t := g.SlotOf[j]; t >= 0 && lev[t]+1 > lev[s] {
				lev[s] = lev[t] + 1
			}
		}
		if lev[s] > maxL {
			maxL = lev[s]
		}
	}
	for i := range lev {
		lev[i] = 0
	}
	var maxU int32
	for s := n - 1; s >= 0; s-- {
		k := gp.Sns[s]
		for _, j := range gp.URowSns[k] {
			if t := g.SlotOf[j]; t >= 0 && lev[t]+1 > lev[s] {
				lev[s] = lev[t] + 1
			}
		}
		if lev[s] > maxU {
			maxU = lev[s]
		}
	}
	return int(maxL) + 1, int(maxU) + 1
}

// levelSweep layers sweep sw's intra-rank task DAG into levels by a
// single topological pass (ascending supernodes for L, descending for U —
// block dependencies only ever point from lower to higher supernodes in L
// and the reverse in U, so supernode order is a topological order). It
// returns the level of each slot's diagonal task (-1 for slots whose
// diagonal this rank does not solve), the level count and the task count
// (diagonal solves plus block applies).
func levelSweep(p *dist.Plan, gp *dist.GridPlan, g *Grid, r2d, sw int) (levelOf []int32, levels, tasks int) {
	n := len(gp.Sns)
	rd := gp.Ranks[r2d]
	levelOf = make([]int32, n)
	// contrib[s] is 1 + the maximum level of a local block task feeding
	// diag(s) seen so far; 0 while only cross-rank sources feed it.
	contrib := make([]int32, n)
	maxLevel := int32(0)
	visit := func(s int) {
		k := gp.Sns[s]
		levelOf[s] = -1
		// Block tasks of column k on this rank: their level follows the
		// local diagonal solve when there is one, else they are fired by
		// the broadcast arrival (a level-0 source).
		var blkLvl int32
		if p.DiagRank2D(k) == r2d {
			levelOf[s] = contrib[s]
			blkLvl = contrib[s] + 1
			tasks++
			maxLevel = max(maxLevel, contrib[s])
		}
		for _, e := range rd.Col(sw, int32(s)) {
			tasks++
			maxLevel = max(maxLevel, blkLvl)
			contrib[e.Slot] = max(contrib[e.Slot], blkLvl+1)
		}
	}
	if sw == dist.SweepL {
		for s := 0; s < n; s++ {
			visit(s)
		}
	} else {
		for s := n - 1; s >= 0; s-- {
			visit(s)
		}
	}
	if tasks > 0 {
		levels = int(maxLevel) + 1
	}
	return levelOf, levels, tasks
}

// arenaSize bounds the panel storage one solve needs on this rank: the
// diagonal solutions y/x it produces, the partial sums it accumulates as
// a reduction member, the allreduce clones (one working set, plus one
// per Z level that the naive allreduce sends), and the baseline's
// cross-node lsum rows, gathered and merged. Received panels take no
// storage: a receipt reads the sender's panel. Returned per rhs column;
// the matching panel-header count comes second. The bound covers every
// algorithm, so it is a safe overestimate for any one of them.
func arenaSize(p *dist.Plan, gp *dist.GridPlan, g *Grid, r2d int) (floats, panels int) {
	zLevels := p.Map.L + 1
	row := r2d / p.Layout.Py
	rd := gp.Ranks[r2d]
	for s, k := range gp.Sns {
		w := int(g.Width[s])
		add := func(n int) {
			floats += n * w
			panels += n
		}
		if p.DiagRank2D(k) == r2d {
			// y(K), x(K), and the allreduce clones of y(K).
			add(2 + zLevels)
		}
		if rd.Parent[dist.SweepL][s] != -2 {
			add(1)
		}
		if gp.NodeOf[k] > 0 && k%p.Layout.Px == row {
			// The baseline's cross-node lsum of a shared-node row: it
			// takes the inter-grid merge another grid's rank at my 2D
			// position hands over and ships at the row's stage, before
			// the within-node partial sum above starts.
			add(1)
		}
		if rd.Parent[dist.SweepU][s] != -2 {
			add(1)
		}
	}
	return floats, panels
}

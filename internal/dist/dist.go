// Package dist builds the distribution plan that the solver algorithms
// execute: for every 2D grid z, the leaf-to-root path of elimination-tree
// nodes, the supernodes living on that path, block-cyclic ownership, the
// per-supernode broadcast and reduction communication trees, and the row
// lists the dependency counters are derived from.
//
// Ownership convention (identical on every grid, which is what lets the
// inter-grid exchanges pair ranks with equal 2D coordinates): block (I, K)
// belongs to 2D rank (I mod Px, K mod Py); the subvectors b(K), y(K), x(K)
// live on the diagonal rank of K. Global rank = z·Px·Py + row·Py + col.
package dist

import (
	"fmt"
	"sync"

	"sptrsv/internal/ctree"
	"sptrsv/internal/grid"
	"sptrsv/internal/order"
	"sptrsv/internal/snode"
)

// Sweep indices of every per-sweep [2] array of the plan and the schedule
// built on it: the forward (L) and the backward (U) triangular solve.
const (
	SweepL = iota
	SweepU
)

// Entry is one block in a rank's column list: the block's index B in the
// packed store (snode.Store) and the slot of the row supernode whose
// partial sum its product accumulates into.
type Entry struct{ B, Slot int32 }

// RankData holds one 2D-local rank's precomputed view of the grid: which
// subvectors it owns, which blocks it applies per column, where its
// partial sums go, and how many row contributions it owes. Every per-row
// table is indexed by slot — the row's index in GridPlan.Sns, the
// numbering of the executor's slot tables — and none is a map, so a solve
// reads it by index. Built once per grid so that handler initialization is
// O(per-rank work), not O(grid work).
type RankData struct {
	MyDiagSns []int // supernodes whose diagonal rank is this one, ascending

	// ColPtr and Blocks list this rank's blocks by sweep in CSR form over
	// the column slots: column slot s's blocks are
	// Blocks[sw][ColPtr[sw][s]:ColPtr[sw][s+1]], in store order (by
	// ascending row supernode), which fixes every partial sum's
	// accumulation order.
	ColPtr [2][]int32
	Blocks [2][]Entry

	// Parent is, by sweep and slot, the 2D rank this rank sends the row's
	// partial sum to in the reduction tree: -1 where it is the root, -2
	// where it is not a member.
	Parent [2][]int32

	// Initial dependency counters for the proposed algorithm, by sweep:
	// expected contributions per row slot (local block products plus
	// reduction-tree children), and total expected receives per phase.
	Pending [2][]int32
	Recv    [2]int
}

// Col returns this rank's blocks of column slot s in sweep sw.
func (rd *RankData) Col(sw int, s int32) []Entry {
	ptr := rd.ColPtr[sw]
	return rd.Blocks[sw][ptr[s]:ptr[s+1]]
}

// Targets counts this rank's blocks of sweep sw by row slot over a grid of
// n slots: the local contributions each row's partial sum takes.
func (rd *RankData) Targets(sw, n int) []int32 {
	out := make([]int32, n)
	for _, e := range rd.Blocks[sw] {
		out[e.Slot]++
	}
	return out
}

// GridPlan is the per-grid view of the distributed factors.
type GridPlan struct {
	Z    int
	Path []grid.PathNode

	// Sns lists the supernodes on this grid's path in ascending global
	// order; a supernode's index in it is its slot. SlotOf maps a global
	// supernode to its slot (-1 if off-path), NodeOf to its index in Path
	// (-1 if off-path). OnPath is the indicator form.
	Sns    []int
	SlotOf []int32
	NodeOf []int
	OnPath []bool

	// RowSns[K] lists, ascending, the path supernodes J < K with a nonzero
	// block L(K, J); by pattern symmetry it equally lists the J > K with a
	// nonzero U(K, J) when read from the U side (mirrored below).
	RowSns [][]int
	// URowSns[K] lists the path supernodes J > K with a nonzero U(K, J).
	URowSns [][]int

	// Communication trees over 2D-local ranks (row·Py + col), by sweep and
	// global supernode; nil for off-path supernodes. Bcast carries y(K) or
	// x(K) down the process column of K, Reduce lsum(K) or usum(K) across
	// its process row.
	Bcast, Reduce [2][]*ctree.Tree

	// Ranks holds each 2D-local rank's precomputed block lists and
	// ownership, indexed by row·Py+col.
	Ranks []*RankData

	// Base holds the baseline algorithm's per-node structures; nil until
	// Plan.BuildBaseline runs.
	Base *Baseline
}

// Plan is the full distribution of one factored matrix on one layout.
type Plan struct {
	M      *snode.Matrix
	Layout grid.Layout
	Map    *grid.Mapping
	Kind   ctree.Kind

	// RowLists[K] lists all global supernodes J < K with a block L(K, J):
	// the grid-independent transpose of the block structure.
	RowLists [][]int

	Grids []*GridPlan

	// baseOnce guards the lazy one-time construction of the baseline
	// structures — the plan's only post-New mutation, made safe for
	// concurrent solves by the once. baseErr caches the build outcome.
	baseOnce sync.Once
	baseErr  error

	// schedOnce guards the lazy one-time construction of the level/DAG
	// execution schedule (see internal/sched). The schedule lives here as
	// an opaque value so dist does not import its builder; CachedSchedule
	// hands the cast back to the caller.
	schedOnce sync.Once
	sched     any
	schedErr  error
}

// CachedSchedule returns the plan's execution schedule, building it with
// build on the first call — the same lazy sync.Once pattern as
// BuildBaseline, so concurrent solves share one immutable schedule. The
// value is opaque to dist; internal/sched owns its type and performs the
// cast.
func (p *Plan) CachedSchedule(build func(*Plan) (any, error)) (any, error) {
	p.schedOnce.Do(func() {
		p.sched, p.schedErr = build(p)
	})
	return p.sched, p.schedErr
}

// Rank2D converts 2D coordinates to the grid-local rank id used by trees.
func (p *Plan) Rank2D(row, col int) int { return row*p.Layout.Py + col }

// DiagRank2D returns the grid-local rank owning the diagonal block of K.
func (p *Plan) DiagRank2D(k int) int {
	return p.Rank2D(k%p.Layout.Px, k%p.Layout.Py)
}

// GlobalRank converts (grid z, 2D-local rank) to the global rank.
func (p *Plan) GlobalRank(z, r2d int) int { return z*p.Layout.GridSize() + r2d }

// New builds the plan for the supernodal factors m distributed on layout l
// with communication trees of the given kind. The order.Tree must be the
// one whose boundaries were fed into the symbolic analysis, so supernodes
// never straddle tree nodes.
func New(m *snode.Matrix, t *order.Tree, l grid.Layout, kind ctree.Kind) (*Plan, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	mapping, err := grid.NewMapping(t, l.Pz)
	if err != nil {
		return nil, err
	}
	p := &Plan{M: m, Layout: l, Map: mapping, Kind: kind}

	// Grid-independent transpose of the L block structure.
	p.RowLists = make([][]int, m.SnCount)
	for k := 0; k < m.SnCount; k++ {
		for _, blk := range m.LBlocks[k] {
			p.RowLists[blk.I] = append(p.RowLists[blk.I], k)
		}
	}

	p.Grids = make([]*GridPlan, l.Pz)
	for z := 0; z < l.Pz; z++ {
		gp, err := p.buildGrid(z)
		if err != nil {
			return nil, err
		}
		p.Grids[z] = gp
	}
	return p, nil
}

// snRange returns the supernode index range [lo, hi) covering the column
// range [begin, end); it requires supernode boundaries to align with the
// node boundaries (guaranteed by the symbolic boundary option).
func (p *Plan) snRange(begin, end int) (int, int, error) {
	m := p.M
	if begin == end {
		return 0, 0, nil
	}
	lo := m.ColToSn[begin]
	hi := m.ColToSn[end-1] + 1
	if m.SnBegin[lo] != begin || m.SnBegin[hi] != end {
		return 0, 0, fmt.Errorf("dist: supernode straddles node boundary [%d,%d)", begin, end)
	}
	return lo, hi, nil
}

func (p *Plan) buildGrid(z int) (*GridPlan, error) {
	m := p.M
	gp := &GridPlan{
		Z:      z,
		Path:   p.Map.Path(z),
		SlotOf: make([]int32, m.SnCount),
		NodeOf: make([]int, m.SnCount),
		OnPath: make([]bool, m.SnCount),
	}
	for i := range gp.NodeOf {
		gp.SlotOf[i] = -1
		gp.NodeOf[i] = -1
	}
	for ni, nd := range gp.Path {
		lo, hi, err := p.snRange(nd.Begin, nd.End)
		if err != nil {
			return nil, err
		}
		if nd.Begin == nd.End {
			continue
		}
		for k := lo; k < hi; k++ {
			gp.SlotOf[k] = int32(len(gp.Sns))
			gp.Sns = append(gp.Sns, k)
			gp.NodeOf[k] = ni
			gp.OnPath[k] = true
		}
	}
	// Path node ranges ascend leaf→root, so Sns is already ascending.

	gp.RowSns = make([][]int, m.SnCount)
	gp.URowSns = make([][]int, m.SnCount)
	for _, k := range gp.Sns {
		for _, j := range p.RowLists[k] {
			if gp.OnPath[j] {
				gp.RowSns[k] = append(gp.RowSns[k], j)
			}
		}
		for _, blk := range m.UBlocks[k] {
			if gp.OnPath[blk.J] {
				gp.URowSns[k] = append(gp.URowSns[k], blk.J)
			}
		}
	}

	if err := p.buildTrees(gp); err != nil {
		return nil, err
	}
	p.buildRankData(gp)
	return gp, nil
}

// buildRankData distributes the grid's blocks over the 2D ranks: two
// passes over the packed store, one counting each rank's blocks per column
// and row, one filling its column lists.
func (p *Plan) buildRankData(gp *GridPlan) {
	n := len(gp.Sns)
	ranks := make([]RankData, p.Layout.GridSize())
	gp.Ranks = make([]*RankData, len(ranks))
	for r := range ranks {
		rd := &ranks[r]
		gp.Ranks[r] = rd
		for sw := range rd.ColPtr {
			rd.ColPtr[sw] = make([]int32, n+1)
			rd.Pending[sw] = make([]int32, n)
			rd.Parent[sw] = make([]int32, n)
			for s := range rd.Parent[sw] {
				rd.Parent[sw][s] = -2
			}
		}
	}
	for _, k := range gp.Sns {
		rd := gp.Ranks[p.DiagRank2D(k)]
		rd.MyDiagSns = append(rd.MyDiagSns, k)
	}
	// Count: column sizes, and each row's local contributions.
	p.gridBlocks(gp, func(sw, r2d int, s int32, e Entry) {
		rd := gp.Ranks[r2d]
		rd.ColPtr[sw][s+1]++
		rd.Pending[sw][e.Slot]++
	})
	for _, rd := range gp.Ranks {
		for sw, ptr := range rd.ColPtr {
			for s := 0; s < n; s++ {
				ptr[s+1] += ptr[s]
			}
			rd.Blocks[sw] = make([]Entry, 0, ptr[n])
		}
	}
	// Fill: columns arrive in slot order, so each rank's lists grow in
	// CSR order.
	p.gridBlocks(gp, func(sw, r2d int, _ int32, e Entry) {
		rd := gp.Ranks[r2d]
		rd.Blocks[sw] = append(rd.Blocks[sw], e)
	})
	// Dependency counters and parents: one pass over tree members instead
	// of one scan of every supernode per rank.
	for slot, k := range gp.Sns {
		for sw := range gp.Reduce {
			red, bc := gp.Reduce[sw][k], gp.Bcast[sw][k]
			for _, m := range red.Members() {
				rd := gp.Ranks[m]
				rd.Pending[sw][slot] += int32(red.NumChildren(m))
				rd.Recv[sw] += red.NumChildren(m)
				rd.Parent[sw][slot] = int32(red.Parent(m))
			}
			for _, m := range bc.Members() {
				if m != bc.Root() {
					gp.Ranks[m].Recv[sw]++
				}
			}
		}
	}
}

// gridBlocks calls f for every block the grid applies, by sweep: column by
// column in slot order and within a column in store order, with the 2D rank
// owning block (I, K) — (I mod Px, K mod Py) — its column's slot, and its
// store entry. Every L block of an on-path column has its row on the path;
// U blocks with an off-path row belong to another grid.
func (p *Plan) gridBlocks(gp *GridPlan, f func(sw, r2d int, s int32, e Entry)) {
	st := &p.M.Store
	l := p.Layout
	for s, k := range gp.Sns {
		lo, hi := st.LCol(k)
		for b := lo; b < hi; b++ {
			i := st.Row(b)
			f(SweepL, p.Rank2D(i%l.Px, k%l.Py), int32(s), Entry{b, gp.SlotOf[i]})
		}
		lo, hi = st.UCol(k)
		for b := lo; b < hi; b++ {
			if i := st.Row(b); gp.OnPath[i] {
				f(SweepU, p.Rank2D(i%l.Px, k%l.Py), int32(s), Entry{b, gp.SlotOf[i]})
			}
		}
	}
}

// buildTrees constructs the broadcast and reduction trees of both sweeps
// for one grid.
func (p *Plan) buildTrees(gp *GridPlan) error {
	m := p.M
	l := p.Layout
	for sw := range gp.Bcast {
		gp.Bcast[sw] = make([]*ctree.Tree, m.SnCount)
		gp.Reduce[sw] = make([]*ctree.Tree, m.SnCount)
	}
	for _, k := range gp.Sns {
		diag := p.DiagRank2D(k)
		colRank := func(i int) int { return p.Rank2D(i%l.Px, k%l.Py) }
		rowRank := func(j int) int { return p.Rank2D(k%l.Px, j%l.Py) }
		// Broadcasts of y(K) and x(K) reach the owners of the sweep's
		// blocks in column K: L(I, K) with I on path, and U(I, K), whose
		// rows I are exactly those with L(K, I) nonzero (RowSns[K]).
		// Reductions of lsum(K) and usum(K) span the owners of the
		// sweep's blocks in row K: L(K, J) and U(K, J), J on path.
		var lRows []int
		for _, blk := range m.LBlocks[k] {
			if gp.OnPath[blk.I] { // always true for on-path K; kept as a guard
				lRows = append(lRows, blk.I)
			}
		}
		bcast := [2][]int{lRows, gp.RowSns[k]}
		reduce := [2][]int{gp.RowSns[k], gp.URowSns[k]}
		for sw := range gp.Bcast {
			var err error
			if gp.Bcast[sw][k], err = memberTree(p.Kind, diag, bcast[sw], colRank); err != nil {
				return err
			}
			if gp.Reduce[sw][k], err = memberTree(p.Kind, diag, reduce[sw], rowRank); err != nil {
				return err
			}
		}
	}
	return nil
}

// memberTree builds a tree of the given kind rooted at diag over diag and
// the ranks of keys, deduplicated in first-seen order.
func memberTree(kind ctree.Kind, diag int, keys []int, rank func(int) int) (*ctree.Tree, error) {
	members := []int{diag}
	seen := map[int]bool{diag: true}
	for _, key := range keys {
		if r := rank(key); !seen[r] {
			seen[r] = true
			members = append(members, r)
		}
	}
	return ctree.New(kind, diag, members)
}

// OwnerGridOfSn returns the smallest grid replicating the node containing
// supernode k, given any grid plan that has k on its path.
func (gp *GridPlan) OwnerGridOfSn(k int) int {
	return gp.Path[gp.NodeOf[k]].OwnerGrid
}

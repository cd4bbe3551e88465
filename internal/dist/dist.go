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

// UBlockRef pairs a U block with its owning supernode row.
type UBlockRef struct {
	I   int
	Blk *snode.UBlock
}

// RankData holds one 2D-local rank's precomputed view of the grid:
// which subvectors it owns, which blocks it applies per column, and how
// many row contributions it owes. Built once per grid so that handler
// initialization is O(per-rank work), not O(grid work).
type RankData struct {
	MyDiagSns []int                   // supernodes whose diagonal rank is this one, ascending
	ColL      map[int][]*snode.LBlock // my L blocks by column supernode
	ColU      map[int][]UBlockRef     // my U blocks by column supernode
	LocalL    map[int]int             // #my L blocks per row supernode
	LocalU    map[int]int             // #my U blocks per row supernode

	// Initial dependency counters for the proposed algorithm: expected
	// contributions per row (local GEMVs plus reduction-tree children) and
	// total expected receives per phase. Handlers clone the maps.
	PendingL map[int]int
	PendingU map[int]int
	LRecv    int
	URecv    int
}

// GridPlan is the per-grid view of the distributed factors.
type GridPlan struct {
	Z    int
	Path []grid.PathNode

	// Sns lists the supernodes on this grid's path in ascending global
	// order. NodeOf maps a global supernode to its index in Path (-1 if
	// off-path). OnPath is the indicator form.
	Sns    []int
	NodeOf []int
	OnPath []bool

	// RowSns[K] lists, ascending, the path supernodes J < K with a nonzero
	// block L(K, J); by pattern symmetry it equally lists the J > K with a
	// nonzero U(K, J) when read from the U side (mirrored below).
	RowSns [][]int
	// URowSns[K] lists the path supernodes J > K with a nonzero U(K, J).
	URowSns [][]int

	// Communication trees over 2D-local ranks (row·Py + col), indexed by
	// global supernode; nil for off-path supernodes.
	LBcast  []*ctree.Tree // y(K) down the process column of K
	LReduce []*ctree.Tree // lsum(K) across the process row of K
	UBcast  []*ctree.Tree // x(K) down the process column of K
	UReduce []*ctree.Tree // usum(K) across the process row of K

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
		NodeOf: make([]int, m.SnCount),
		OnPath: make([]bool, m.SnCount),
	}
	for i := range gp.NodeOf {
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

// buildRankData distributes the grid's blocks over the 2D ranks in one
// pass over the block structure.
func (p *Plan) buildRankData(gp *GridPlan) {
	m := p.M
	l := p.Layout
	gp.Ranks = make([]*RankData, l.GridSize())
	for r := range gp.Ranks {
		gp.Ranks[r] = &RankData{
			ColL:   map[int][]*snode.LBlock{},
			ColU:   map[int][]UBlockRef{},
			LocalL: map[int]int{},
			LocalU: map[int]int{},
		}
	}
	for r := range gp.Ranks {
		gp.Ranks[r].PendingL = map[int]int{}
		gp.Ranks[r].PendingU = map[int]int{}
	}
	for _, k := range gp.Sns {
		gp.Ranks[p.DiagRank2D(k)].MyDiagSns = append(gp.Ranks[p.DiagRank2D(k)].MyDiagSns, k)
		for bi := range m.LBlocks[k] {
			blk := &m.LBlocks[k][bi]
			r := gp.Ranks[p.Rank2D(blk.I%l.Px, k%l.Py)]
			r.ColL[k] = append(r.ColL[k], blk)
			if blk.I != k {
				r.LocalL[blk.I]++
			}
		}
		for bi := range m.UBlocks[k] {
			blk := &m.UBlocks[k][bi]
			if !gp.OnPath[blk.J] {
				continue
			}
			r := gp.Ranks[p.Rank2D(k%l.Px, blk.J%l.Py)]
			r.ColU[blk.J] = append(r.ColU[blk.J], UBlockRef{I: k, Blk: blk})
			r.LocalU[k]++
		}
	}
	// Dependency counters: one pass over tree members instead of one scan
	// of every supernode per rank.
	for _, k := range gp.Sns {
		for _, m := range gp.LReduce[k].Members() {
			rd := gp.Ranks[m]
			rd.PendingL[k] = rd.LocalL[k] + gp.LReduce[k].NumChildren(m)
			rd.LRecv += gp.LReduce[k].NumChildren(m)
		}
		for _, m := range gp.LBcast[k].Members() {
			if m != gp.LBcast[k].Root() {
				gp.Ranks[m].LRecv++
			}
		}
		for _, m := range gp.UReduce[k].Members() {
			rd := gp.Ranks[m]
			rd.PendingU[k] = rd.LocalU[k] + gp.UReduce[k].NumChildren(m)
			rd.URecv += gp.UReduce[k].NumChildren(m)
		}
		for _, m := range gp.UBcast[k].Members() {
			if m != gp.UBcast[k].Root() {
				gp.Ranks[m].URecv++
			}
		}
	}
}

// buildTrees constructs the four tree families for one grid.
func (p *Plan) buildTrees(gp *GridPlan) error {
	m := p.M
	l := p.Layout
	gp.LBcast = make([]*ctree.Tree, m.SnCount)
	gp.LReduce = make([]*ctree.Tree, m.SnCount)
	gp.UBcast = make([]*ctree.Tree, m.SnCount)
	gp.UReduce = make([]*ctree.Tree, m.SnCount)

	for _, k := range gp.Sns {
		diag := p.DiagRank2D(k)

		// L broadcast of y(K): owners of blocks L(I, K), I on path.
		members := []int{diag}
		seen := map[int]bool{diag: true}
		for _, blk := range m.LBlocks[k] {
			if !gp.OnPath[blk.I] {
				continue // cannot happen for on-path K; kept as a guard
			}
			r := p.Rank2D(blk.I%l.Px, k%l.Py)
			if !seen[r] {
				seen[r] = true
				members = append(members, r)
			}
		}
		tr, err := ctree.New(p.Kind, diag, members)
		if err != nil {
			return err
		}
		gp.LBcast[k] = tr

		// U broadcast of x(K): owners of blocks U(I, K) = mirrors L(K, ·)
		// read column-wise; participants are owners of U(I,K) with I < K,
		// i.e. ranks (I mod Px, K mod Py) for I in RowSns[K]... the rows I
		// with L(K, I) nonzero are exactly the rows with U(I, K) nonzero.
		members = []int{diag}
		seen = map[int]bool{diag: true}
		for _, i := range gp.RowSns[k] {
			r := p.Rank2D(i%l.Px, k%l.Py)
			if !seen[r] {
				seen[r] = true
				members = append(members, r)
			}
		}
		if tr, err = ctree.New(p.Kind, diag, members); err != nil {
			return err
		}
		gp.UBcast[k] = tr

		// L reduction of lsum(K): owners of blocks L(K, J), J on path.
		members = []int{diag}
		seen = map[int]bool{diag: true}
		for _, j := range gp.RowSns[k] {
			r := p.Rank2D(k%l.Px, j%l.Py)
			if !seen[r] {
				seen[r] = true
				members = append(members, r)
			}
		}
		if tr, err = ctree.New(p.Kind, diag, members); err != nil {
			return err
		}
		gp.LReduce[k] = tr

		// U reduction of usum(K): owners of blocks U(K, J), J > K on path.
		members = []int{diag}
		seen = map[int]bool{diag: true}
		for _, j := range gp.URowSns[k] {
			r := p.Rank2D(k%l.Px, j%l.Py)
			if !seen[r] {
				seen[r] = true
				members = append(members, r)
			}
		}
		if tr, err = ctree.New(p.Kind, diag, members); err != nil {
			return err
		}
		gp.UReduce[k] = tr
	}
	return nil
}

// OwnerGridOfSn returns the smallest grid replicating the node containing
// supernode k, given any grid plan that has k on its path.
func (gp *GridPlan) OwnerGridOfSn(k int) int {
	return gp.Path[gp.NodeOf[k]].OwnerGrid
}

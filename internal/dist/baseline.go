package dist

import (
	"sort"

	"sptrsv/internal/ctree"
)

// GroupTree is a communication tree restricted to one elimination-tree
// node: the baseline 3D algorithm builds a separate (flat) tree per
// (supernode, target node) pair — the "three broadcast and reduction trees
// per row and column" of the paper's Fig. 1(b) remark — where the proposed
// algorithm uses a single tree.
type GroupTree struct {
	Node int // path node index the tree's block rows/columns live in
	Tree *ctree.Tree
	// Kids is the root's fan-out (Tree.RootChildren), read by the solve.
	Kids []int
}

// BaselineRankData holds one rank's precomputed baseline counters, by
// sweep: expected receives per node stage 0..s, and per-row dependency
// counts by slot — the row's index in GridPlan.Sns, the numbering of the
// level schedule's slot tables. Handlers copy both. Parent is the
// baseline's reduction parent by slot, as in RankData.
type BaselineRankData struct {
	Remaining [2][]int
	Pending   [2][]int32
	Parent    [2][]int32
}

// Baseline holds the per-grid structures only the baseline algorithm uses.
// All its trees are flat: the baseline predates the binary-tree latency
// optimization.
type Baseline struct {
	// S is this grid's highest processed node stage (the trailing zero
	// count of its index, capped at log2(Pz)).
	S int
	// Ranks holds the per-rank counters, indexed by 2D-local rank.
	Ranks []*BaselineRankData

	// BcastGroups[sw][K] holds one flat tree per path node containing rows
	// of the sweep's blocks in column K — L(I,K), or U(I,K) with I < K —
	// ordered by ascending node index.
	BcastGroups [2][][]GroupTree
	// Reduce[SweepL][K] is the flat reduction tree over ranks owning
	// blocks L(K,J) with J in K's own node (within-node contributions
	// only; the cross-node ones arrive through the pre-gather);
	// Reduce[SweepU][K] the flat tree over all ranks owning blocks U(K,J),
	// J on path.
	Reduce [2][]*ctree.Tree
	// GatherCols[K] lists the process columns holding cross-node lsum
	// contributions for row K: the distinct J mod Py over all global
	// supernodes J with a block L(K,J) lying strictly below K's node.
	GatherCols [][]int
}

// BuildBaseline populates the baseline structures for every grid. It is
// idempotent, safe for concurrent callers, and must run before the
// baseline algorithm (Solve does it); building once up front keeps the
// handlers strictly read-only over the plan, which concurrent solves and
// the goroutine backend require.
func (p *Plan) BuildBaseline() error {
	p.baseOnce.Do(func() {
		for _, gp := range p.Grids {
			b, err := p.buildBaselineGrid(gp)
			if err != nil {
				p.baseErr = err
				return
			}
			gp.Base = b
		}
	})
	return p.baseErr
}

// withinNode reports whether global supernode j lies inside the path node
// with index ni on this grid (node ranges are contiguous column ranges; the
// leaf node's range covers its whole subtree).
func (p *Plan) withinNode(gp *GridPlan, j, ni int) bool {
	nd := gp.Path[ni]
	c := p.M.SnBegin[j]
	return c >= nd.Begin && c < nd.End
}

func trailingZerosCapped(z, cap int) int {
	if z == 0 {
		return cap
	}
	s := 0
	for z&1 == 0 {
		s++
		z >>= 1
	}
	return s
}

func (p *Plan) buildBaselineGrid(gp *GridPlan) (*Baseline, error) {
	m := p.M
	l := p.Layout
	b := &Baseline{GatherCols: make([][]int, m.SnCount)}
	for sw := range b.Reduce {
		b.BcastGroups[sw] = make([][]GroupTree, m.SnCount)
		b.Reduce[sw] = make([]*ctree.Tree, m.SnCount)
	}
	for _, k := range gp.Sns {
		diag := p.DiagRank2D(k)
		ni := gp.NodeOf[k]

		// Broadcast group trees, by sweep: the rows of column K's blocks —
		// L(I,K), or U(I,K) with I < K — grouped by their path node.
		lRows := make([]int, len(m.LBlocks[k]))
		for i, blk := range m.LBlocks[k] {
			lRows[i] = blk.I
		}
		for sw, rows := range [2][]int{lRows, gp.RowSns[k]} {
			byNode := map[int][]int{}
			seen := map[[2]int]bool{}
			for _, i := range rows {
				g := gp.NodeOf[i]
				r := p.Rank2D(i%l.Px, k%l.Py)
				if key := [2]int{g, r}; !seen[key] {
					seen[key] = true
					byNode[g] = append(byNode[g], r)
				}
			}
			var groups []int
			for g := range byNode {
				groups = append(groups, g)
			}
			sort.Ints(groups)
			for _, g := range groups {
				members := byNode[g]
				if !containsInt(members, diag) {
					members = append([]int{diag}, members...)
				}
				tr, err := ctree.New(ctree.Flat, diag, members)
				if err != nil {
					return nil, err
				}
				b.BcastGroups[sw][k] = append(b.BcastGroups[sw][k], GroupTree{Node: g, Tree: tr, Kids: tr.RootChildren()})
			}
		}

		// Reduction trees: within-node L contributions only, and every U
		// contributor on the path.
		var within []int
		for _, j := range gp.RowSns[k] {
			if gp.NodeOf[j] == ni {
				within = append(within, j)
			}
		}
		rowRank := func(j int) int { return p.Rank2D(k%l.Px, j%l.Py) }
		for sw, cols := range [2][]int{within, gp.URowSns[k]} {
			tr, err := memberTree(ctree.Flat, diag, cols, rowRank)
			if err != nil {
				return nil, err
			}
			b.Reduce[sw][k] = tr
		}

		// Gather columns: global row list entries strictly below K's node.
		colSet := map[int]bool{}
		for _, j := range p.RowLists[k] {
			if !p.withinNode(gp, j, ni) {
				colSet[j%l.Py] = true
			}
		}
		var cols []int
		for c := range colSet {
			cols = append(cols, c)
		}
		sort.Ints(cols)
		b.GatherCols[k] = cols
	}
	p.buildBaselineRankData(gp, b)
	return b, nil
}

// buildBaselineRankData precomputes the per-rank stage counters in one
// pass over the grid's supernodes and tree members.
func (p *Plan) buildBaselineRankData(gp *GridPlan, b *Baseline) {
	l := p.Layout
	b.S = trailingZerosCapped(gp.Z, p.Map.L)
	s := b.S
	b.Ranks = make([]*BaselineRankData, l.GridSize())
	n := len(gp.Sns)
	for r := range b.Ranks {
		rd := &BaselineRankData{
			Remaining: [2][]int{make([]int, s+1), make([]int, s+1)},
			Pending:   [2][]int32{make([]int32, n), make([]int32, n)},
			Parent:    [2][]int32{make([]int32, n), make([]int32, n)},
		}
		for sw := range rd.Parent {
			for i := range rd.Parent[sw] {
				rd.Parent[sw][i] = -2
			}
		}
		b.Ranks[r] = rd
	}
	localU := make([][]int32, l.GridSize())
	for r, rd := range gp.Ranks {
		localU[r] = rd.Targets(SweepU, n)
	}
	for slot, k := range gp.Sns {
		ni := gp.NodeOf[k]
		diag := p.DiagRank2D(k)
		for sw, t := range b.Reduce {
			for _, m := range t[k].Members() {
				b.Ranks[m].Parent[sw][slot] = int32(t[k].Parent(m))
			}
		}
		if ni <= s {
			for _, gt := range b.BcastGroups[SweepL][k] {
				for _, m := range gt.Tree.Members() {
					if m != diag {
						b.Ranks[m].Remaining[SweepL][ni]++
					}
				}
			}
		}
		if ni > s {
			// Unprocessed ancestors: only the bundle re-broadcast receives
			// below apply.
			continue
		}
		withinByCol := map[int]int{}
		for _, j := range gp.RowSns[k] {
			if gp.NodeOf[j] == ni {
				withinByCol[j%l.Py]++
			}
		}
		t := b.Reduce[SweepL][k]
		for _, m := range t.Members() {
			rd := b.Ranks[m]
			rd.Pending[SweepL][slot] = int32(withinByCol[m%l.Py] + t.NumChildren(m))
			rd.Remaining[SweepL][ni] += t.NumChildren(m)
		}
		gather := 0
		for _, c := range b.GatherCols[k] {
			if c != k%l.Py {
				gather++
			}
		}
		if gather > 0 {
			b.Ranks[diag].Pending[SweepL][slot] += int32(gather)
			b.Ranks[diag].Remaining[SweepL][ni] += gather
		}
		for _, gt := range b.BcastGroups[SweepU][k] {
			for _, m := range gt.Tree.Members() {
				if m != diag {
					b.Ranks[m].Remaining[SweepU][ni]++
				}
			}
		}
		tu := b.Reduce[SweepU][k]
		for _, m := range tu.Members() {
			rd := b.Ranks[m]
			rd.Pending[SweepU][slot] = localU[m][slot] + int32(tu.NumChildren(m))
			rd.Remaining[SweepU][ni] += tu.NumChildren(m)
		}
	}
	if gp.Z != 0 {
		for _, k := range gp.Sns {
			if gp.NodeOf[k] <= s {
				continue
			}
			diag := p.DiagRank2D(k)
			for _, gt := range b.BcastGroups[SweepU][k] {
				if gt.Node > s {
					continue
				}
				for _, m := range gt.Tree.Members() {
					if m != diag {
						b.Ranks[m].Remaining[SweepU][s]++
					}
				}
			}
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

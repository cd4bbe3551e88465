// Package grid defines the 3D process layout of the paper: Pz replicated
// 2D grids of Px×Py ranks, the block-cyclic ownership of supernodal blocks
// within a 2D grid, and the mapping of elimination-tree nodes onto grids
// (each leaf node lives on one grid; ancestors are replicated on a
// contiguous power-of-two block of grids).
package grid

import (
	"fmt"

	"sptrsv/internal/order"
)

// Layout is a Px×Py×Pz process layout. Ranks are numbered grid-major:
// rank = z·Px·Py + row·Py + col, matching SuperLU_DIST's row-major 2D grid.
type Layout struct {
	Px, Py, Pz int
}

// Size returns the total number of ranks.
func (l Layout) Size() int { return l.Px * l.Py * l.Pz }

// GridSize returns the ranks per 2D grid.
func (l Layout) GridSize() int { return l.Px * l.Py }

// Rank converts (row, col, z) coordinates to a global rank.
func (l Layout) Rank(row, col, z int) int {
	return z*l.Px*l.Py + row*l.Py + col
}

// Coords converts a global rank to (row, col, z).
func (l Layout) Coords(rank int) (row, col, z int) {
	g := l.Px * l.Py
	z = rank / g
	r := rank % g
	return r / l.Py, r % l.Py, z
}

// OwnerRow returns the process row owning supernode-row i (block-cyclic).
func (l Layout) OwnerRow(i int) int { return i % l.Px }

// OwnerCol returns the process column owning supernode-column k.
func (l Layout) OwnerCol(k int) int { return k % l.Py }

// DiagRank returns the global rank of the diagonal process of supernode k
// on grid z — the owner of block (k, k).
func (l Layout) DiagRank(k, z int) int {
	return l.Rank(l.OwnerRow(k), l.OwnerCol(k), z)
}

// BlockRank returns the global rank owning block (i, k) on grid z.
func (l Layout) BlockRank(i, k, z int) int {
	return l.Rank(l.OwnerRow(i), l.OwnerCol(k), z)
}

// Validate checks the layout is usable.
func (l Layout) Validate() error {
	if l.Px < 1 || l.Py < 1 || l.Pz < 1 {
		return fmt.Errorf("grid: non-positive layout %dx%dx%d", l.Px, l.Py, l.Pz)
	}
	if l.Pz&(l.Pz-1) != 0 {
		return fmt.Errorf("grid: Pz=%d must be a power of two", l.Pz)
	}
	return nil
}

// Square2D returns (Px, Py) with Px·Py = p and Px ≈ Py (Px ≥ Py), the
// paper's rule for choosing 2D grid shapes in Fig. 4.
func Square2D(p int) (px, py int) {
	px = 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			px = d
		}
	}
	return p / px, px
}

// ForBudget lays out a budget of p ranks the paper's way: Pz is the largest
// power of two that divides p and does not exceed leaves (the separator
// tree's leaf count, the most grids it can feed), and the remaining p/Pz
// ranks form the Square2D grid. Each replicated grid trades the
// per-supernode intra-grid broadcasts for one sparse allreduce, which is
// the cheaper side whenever the solve is latency-bound.
func ForBudget(p, leaves int) Layout {
	pz := 1
	for p%(2*pz) == 0 && 2*pz <= leaves {
		pz *= 2
	}
	px, py := Square2D(p / pz)
	return Layout{Px: px, Py: py, Pz: pz}
}

// PathNode describes one elimination-tree node on a grid's leaf-to-root
// path. Columns refer to the ND-permuted matrix.
type PathNode struct {
	Level      int // tree level: log2(Pz) for the leaf, 0 for the root
	HeapIndex  int // node index in the order.Tree heap
	Begin, End int // column range of the node's supernodes
	OwnerGrid  int // smallest grid index replicating this node
	GridCount  int // number of grids replicating this node: 2^(L-Level)
}

// Replicated reports whether the node lives on more than one grid.
func (p PathNode) Replicated() bool { return p.GridCount > 1 }

// Mapping binds an order.Tree to a Pz value, exposing each grid's path.
type Mapping struct {
	Tree *order.Tree
	L    int // log2(Pz)
	Pz   int
}

// NewMapping creates the node→grid mapping for pz grids. pz must be a
// power of two not exceeding the tree's leaf count.
func NewMapping(t *order.Tree, pz int) (*Mapping, error) {
	if pz < 1 || pz&(pz-1) != 0 {
		return nil, fmt.Errorf("grid: pz=%d must be a power of two", pz)
	}
	l := 0
	for 1<<l < pz {
		l++
	}
	if l > t.Depth {
		return nil, fmt.Errorf("grid: pz=%d exceeds tree capacity 2^%d", pz, t.Depth)
	}
	return &Mapping{Tree: t, L: l, Pz: pz}, nil
}

// Path returns grid z's nodes from leaf (level L) to root (level 0). The
// leaf node covers the entire subtree of the level-L tree node assigned to
// grid z; ancestors cover only their separators.
func (m *Mapping) Path(z int) []PathNode {
	if z < 0 || z >= m.Pz {
		panic(fmt.Sprintf("grid: path for grid %d of %d", z, m.Pz))
	}
	idx := (1 << m.L) - 1 + z // heap index of the level-L node
	nd := m.Tree.Nodes[idx]
	path := []PathNode{{
		Level:     m.L,
		HeapIndex: idx,
		Begin:     nd.SubBegin,
		End:       nd.End,
		OwnerGrid: z,
		GridCount: 1,
	}}
	for level := m.L - 1; level >= 0; level-- {
		idx = (idx - 1) / 2
		nd = m.Tree.Nodes[idx]
		span := 1 << (m.L - level)
		path = append(path, PathNode{
			Level:     level,
			HeapIndex: idx,
			Begin:     nd.Begin,
			End:       nd.End,
			OwnerGrid: (z / span) * span,
			GridCount: span,
		})
	}
	return path
}

// NodeOfColumn returns, for grid z, the index into Path(z) of the node
// containing permuted column c, or -1 if the column is not on the path.
func (m *Mapping) NodeOfColumn(path []PathNode, c int) int {
	for i, nd := range path {
		if c >= nd.Begin && c < nd.End {
			return i
		}
	}
	return -1
}

// Boundaries returns every recorded node-range endpoint; the symbolic
// layer uses them to keep supernodes from spanning tree nodes.
func Boundaries(t *order.Tree) []int {
	var out []int
	for _, nd := range t.Nodes {
		out = append(out, nd.SubBegin, nd.Begin, nd.End)
	}
	return out
}

package grid

import (
	"testing"
	"testing/quick"

	"sptrsv/internal/gen"
	"sptrsv/internal/order"
)

func TestRankCoordsRoundTrip(t *testing.T) {
	check := func(px, py, pzExp uint8) bool {
		l := Layout{Px: int(px%4) + 1, Py: int(py%4) + 1, Pz: 1 << (pzExp % 4)}
		for r := 0; r < l.Size(); r++ {
			row, col, z := l.Coords(r)
			if l.Rank(row, col, z) != r {
				return false
			}
			if row < 0 || row >= l.Px || col < 0 || col >= l.Py || z < 0 || z >= l.Pz {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if err := (Layout{2, 3, 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Layout{2, 3, 3}).Validate(); err == nil {
		t.Fatal("Pz=3 should be rejected")
	}
	if err := (Layout{0, 1, 1}).Validate(); err == nil {
		t.Fatal("Px=0 should be rejected")
	}
}

func TestSquare2D(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 4: {2, 2}, 8: {4, 2}, 12: {4, 3}, 16: {4, 4}, 64: {8, 8},
		7: {7, 1},
	}
	for p, want := range cases {
		px, py := Square2D(p)
		if px*py != p || px != want[0] || py != want[1] {
			t.Fatalf("Square2D(%d) = (%d,%d), want %v", p, px, py, want)
		}
	}
}

func TestForBudget(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		for _, leaves := range []int{1, 2, 4, 64} {
			l := ForBudget(p, leaves)
			if err := l.Validate(); err != nil || l.Size() != p {
				t.Fatalf("ForBudget(%d, %d) = %+v: size %d, %v", p, leaves, l, l.Size(), err)
			}
			if p%l.Pz != 0 || l.Pz > leaves {
				t.Fatalf("ForBudget(%d, %d): Pz=%d must divide P and not exceed the leaves", p, leaves, l.Pz)
			}
			if p%(2*l.Pz) == 0 && 2*l.Pz <= leaves {
				t.Fatalf("ForBudget(%d, %d): Pz=%d is not maximal", p, leaves, l.Pz)
			}
			if l.Px < l.Py {
				t.Fatalf("ForBudget(%d, %d) = %+v: Px < Py", p, leaves, l)
			}
		}
	}
	for _, c := range []struct {
		p, leaves int
		want      Layout
	}{
		{2, 64, Layout{1, 1, 2}}, {4, 2, Layout{2, 1, 2}}, {12, 64, Layout{3, 1, 4}},
		{16, 4, Layout{2, 2, 4}}, {3, 64, Layout{3, 1, 1}}, {8, 1, Layout{4, 2, 1}},
	} {
		if got := ForBudget(c.p, c.leaves); got != c.want {
			t.Fatalf("ForBudget(%d, %d) = %+v, want %+v", c.p, c.leaves, got, c.want)
		}
	}
}

func TestBlockCyclicOwners(t *testing.T) {
	l := Layout{Px: 2, Py: 3, Pz: 2}
	if l.OwnerRow(5) != 1 || l.OwnerCol(5) != 2 {
		t.Fatal("block-cyclic owner wrong")
	}
	if l.DiagRank(4, 1) != l.Rank(0, 1, 1) {
		t.Fatal("DiagRank wrong")
	}
	if l.BlockRank(5, 4, 0) != l.Rank(1, 1, 0) {
		t.Fatal("BlockRank wrong")
	}
}

func newTree(t *testing.T, depth int) *order.Tree {
	t.Helper()
	a := gen.S2D9pt(24, 24, 1)
	return order.NestedDissection(a, depth)
}

func TestMappingPaths(t *testing.T) {
	tr := newTree(t, 3)
	for _, pz := range []int{1, 2, 4, 8} {
		m, err := NewMapping(tr, pz)
		if err != nil {
			t.Fatal(err)
		}
		for z := 0; z < pz; z++ {
			path := m.Path(z)
			if len(path) != m.L+1 {
				t.Fatalf("pz=%d grid %d: path length %d", pz, z, len(path))
			}
			if path[0].Level != m.L || path[len(path)-1].Level != 0 {
				t.Fatal("path levels wrong")
			}
			if path[len(path)-1].HeapIndex != 0 {
				t.Fatal("path does not end at root")
			}
			// Ranges must be disjoint and ascending leaf→root.
			for i := 1; i < len(path); i++ {
				if path[i].Begin < path[i-1].End {
					t.Fatalf("path ranges overlap: %+v then %+v", path[i-1], path[i])
				}
			}
			// Owner grids: leaf owned by z itself, root by grid 0.
			if path[0].OwnerGrid != z || path[len(path)-1].OwnerGrid != 0 {
				t.Fatal("owner grids wrong")
			}
		}
	}
}

func TestMappingReplicationCounts(t *testing.T) {
	tr := newTree(t, 3)
	m, err := NewMapping(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Each heap node at level l must be shared by exactly 2^(3-l) grids.
	seen := map[int]map[int]bool{}
	for z := 0; z < 8; z++ {
		for _, nd := range m.Path(z) {
			if seen[nd.HeapIndex] == nil {
				seen[nd.HeapIndex] = map[int]bool{}
			}
			seen[nd.HeapIndex][z] = true
			if nd.GridCount != 1<<(3-nd.Level) {
				t.Fatalf("node %d level %d gridcount %d", nd.HeapIndex, nd.Level, nd.GridCount)
			}
		}
	}
	for idx, grids := range seen {
		lvl := order.Level(idx)
		if len(grids) != 1<<(3-lvl) {
			t.Fatalf("node %d observed on %d grids, want %d", idx, len(grids), 1<<(3-lvl))
		}
	}
}

func TestMappingLeafCoverage(t *testing.T) {
	// Union of all leaf ranges plus replicated ancestors (counted once)
	// must cover all columns exactly once.
	tr := newTree(t, 2)
	m, err := NewMapping(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]int, tr.N)
	for z := 0; z < 4; z++ {
		for _, nd := range m.Path(z) {
			if nd.OwnerGrid != z {
				continue // count each node once, at its owner grid
			}
			for c := nd.Begin; c < nd.End; c++ {
				covered[c]++
			}
		}
	}
	for c, n := range covered {
		if n != 1 {
			t.Fatalf("column %d covered %d times", c, n)
		}
	}
}

func TestMappingErrors(t *testing.T) {
	tr := newTree(t, 2)
	if _, err := NewMapping(tr, 3); err == nil {
		t.Fatal("pz=3 accepted")
	}
	if _, err := NewMapping(tr, 8); err == nil {
		t.Fatal("pz beyond tree depth accepted")
	}
}

func TestNodeOfColumn(t *testing.T) {
	tr := newTree(t, 2)
	m, _ := NewMapping(tr, 4)
	path := m.Path(2)
	for i, nd := range path {
		if got := m.NodeOfColumn(path, nd.Begin); got != i {
			t.Fatalf("NodeOfColumn(%d) = %d, want %d", nd.Begin, got, i)
		}
	}
	// A column on a sibling's subtree is not on this path.
	other := m.Path(0)[0]
	if m.NodeOfColumn(path, other.Begin) != -1 {
		t.Fatal("foreign column claimed on path")
	}
}

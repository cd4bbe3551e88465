// Package symbolic computes the symbolic factorization of a structurally
// symmetric permuted matrix: the elimination tree, the fill pattern of the
// L factor, and the supernode partition the solvers operate on.
//
// The supernode partition follows the supernodal convention of the paper
// (§2.1): fundamental supernodes — runs of columns with nested patterns —
// optionally split at nested-dissection node boundaries (a supernode must
// never span two elimination-tree nodes, or the 3D grid mapping would tear
// it apart) and capped at a maximum width to expose block parallelism.
package symbolic

import (
	"fmt"
	"sort"

	"sptrsv/internal/sparse"
)

// Structure is the result of symbolic analysis.
type Structure struct {
	N      int
	Parent []int // column elimination tree; -1 at roots

	// Fill pattern of L in column form. Column j's rows are
	// RowInd[ColPtr[j]:ColPtr[j+1]], ascending, starting with j itself.
	ColPtr []int
	RowInd []int

	// Supernode partition.
	SnCount int
	ColToSn []int // length N
	SnBegin []int // length SnCount+1; supernode K holds cols [SnBegin[K], SnBegin[K+1])
}

// FillNNZ returns nnz(L) including the diagonal; by pattern symmetry
// nnz(LU) = 2*FillNNZ() - N.
func (s *Structure) FillNNZ() int { return len(s.RowInd) }

// SnCols returns the number of columns in supernode K.
func (s *Structure) SnCols(k int) int { return s.SnBegin[k+1] - s.SnBegin[k] }

// DefaultMaxSupernode is the supernode width cap Analyze applies when
// Options.MaxSupernode is ≤ 0.
const DefaultMaxSupernode = 48

// Options controls the supernode partition.
type Options struct {
	MaxSupernode int   // cap on supernode width; ≤0 means DefaultMaxSupernode
	Boundaries   []int // column indices that must start a new supernode
}

// Analyze computes the elimination tree, fill pattern, and supernodes of
// the structurally symmetric matrix a (already permuted).
func Analyze(a *sparse.CSR, opt Options) (*Structure, error) {
	n := a.N
	maxSn := opt.MaxSupernode
	if maxSn <= 0 {
		maxSn = DefaultMaxSupernode
	}
	s := &Structure{N: n, Parent: make([]int, n)}

	// Lower adjacency: for column c, original rows r > c.
	lowerPtr := make([]int, n+1)
	for r := 0; r < n; r++ {
		cols, _ := a.Row(r)
		for _, c := range cols {
			if c < r {
				lowerPtr[c+1]++
			}
		}
	}
	for c := 0; c < n; c++ {
		lowerPtr[c+1] += lowerPtr[c]
	}
	lowerInd := make([]int, lowerPtr[n])
	next := make([]int, n)
	copy(next, lowerPtr[:n])
	for r := 0; r < n; r++ {
		cols, _ := a.Row(r)
		for _, c := range cols {
			if c < r {
				lowerInd[next[c]] = r
				next[c]++
			}
		}
	}

	// Symbolic elimination: pattern(j) = {j} ∪ lowerAdj(j) ∪
	// ∪_{children c} (pattern(c) \ {c}); parent(j) = min pattern(j) > j.
	patterns := make([][]int, n)
	children := make([][]int, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		var pat []int
		mark[j] = j
		for i := lowerPtr[j]; i < lowerPtr[j+1]; i++ {
			r := lowerInd[i]
			if mark[r] != j {
				mark[r] = j
				pat = append(pat, r)
			}
		}
		for _, c := range children[j] {
			for _, r := range patterns[c] {
				if r > j && mark[r] != j {
					mark[r] = j
					pat = append(pat, r)
				}
			}
			patterns[c] = patterns[c][:0] // children are merged exactly once
		}
		sort.Ints(pat)
		patterns[j] = pat
		if len(pat) > 0 {
			s.Parent[j] = pat[0]
			children[pat[0]] = append(children[pat[0]], j)
		} else {
			s.Parent[j] = -1
		}
	}

	// The merge above truncated children patterns; recompute storage by a
	// second pass would be wasteful, so instead retain full rows: redo with
	// retained patterns when needed. Simpler: rebuild patterns without
	// truncation below.
	return rebuild(a, s, lowerPtr, lowerInd, maxSn, opt.Boundaries)
}

// rebuild performs the symbolic elimination again, keeping every column's
// full pattern, and assembles the CSC arrays plus supernodes. Splitting the
// two passes keeps peak memory lower: the first pass only needed parents.
func rebuild(a *sparse.CSR, s *Structure, lowerPtr, lowerInd []int, maxSn int, boundaries []int) (*Structure, error) {
	n := s.N
	children := make([][]int, n)
	for j := 0; j < n; j++ {
		if p := s.Parent[j]; p >= 0 {
			children[p] = append(children[p], j)
		}
	}
	patterns := make([][]int, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	nnz := 0
	for j := 0; j < n; j++ {
		var pat []int
		mark[j] = j
		for i := lowerPtr[j]; i < lowerPtr[j+1]; i++ {
			r := lowerInd[i]
			if mark[r] != j {
				mark[r] = j
				pat = append(pat, r)
			}
		}
		for _, c := range children[j] {
			for _, r := range patterns[c] {
				if r > j && mark[r] != j {
					mark[r] = j
					pat = append(pat, r)
				}
			}
		}
		sort.Ints(pat)
		patterns[j] = pat
		nnz += len(pat) + 1
	}

	s.ColPtr = make([]int, n+1)
	s.RowInd = make([]int, 0, nnz)
	for j := 0; j < n; j++ {
		s.ColPtr[j] = len(s.RowInd)
		s.RowInd = append(s.RowInd, j)
		s.RowInd = append(s.RowInd, patterns[j]...)
	}
	s.ColPtr[n] = len(s.RowInd)

	if err := detectSupernodes(s, maxSn, boundaries); err != nil {
		return nil, err
	}
	return s, nil
}

// detectSupernodes partitions columns into fundamental supernodes split at
// boundaries and capped at maxSn columns.
func detectSupernodes(s *Structure, maxSn int, boundaries []int) error {
	n := s.N
	isBoundary := make([]bool, n+1)
	for _, b := range boundaries {
		if b < 0 || b > n {
			return fmt.Errorf("symbolic: boundary %d out of range", b)
		}
		isBoundary[b] = true
	}
	s.ColToSn = make([]int, n)
	s.SnBegin = []int{0}
	colLen := func(j int) int { return s.ColPtr[j+1] - s.ColPtr[j] }
	size := 0
	for j := 0; j < n; j++ {
		newSn := j == 0
		if !newSn {
			fundamental := s.Parent[j-1] == j && colLen(j-1) == colLen(j)+1
			if !fundamental || size >= maxSn || isBoundary[j] {
				newSn = true
			}
		}
		if newSn && j > 0 {
			s.SnBegin = append(s.SnBegin, j)
			size = 0
		}
		s.ColToSn[j] = len(s.SnBegin) - 1
		size++
	}
	s.SnBegin = append(s.SnBegin, n)
	s.SnCount = len(s.SnBegin) - 1
	return nil
}

// CheckStructure verifies the fill-pattern invariants the factorization
// relies on; tests call it.
func (s *Structure) CheckStructure() error {
	n := s.N
	for j := 0; j < n; j++ {
		rows := s.RowInd[s.ColPtr[j]:s.ColPtr[j+1]]
		if len(rows) == 0 || rows[0] != j {
			return fmt.Errorf("symbolic: column %d does not start with diagonal", j)
		}
		for i := 1; i < len(rows); i++ {
			if rows[i] <= rows[i-1] {
				return fmt.Errorf("symbolic: column %d rows not ascending", j)
			}
		}
		if len(rows) > 1 && rows[1] != s.Parent[j] {
			return fmt.Errorf("symbolic: column %d parent %d != first off-diag %d", j, s.Parent[j], rows[1])
		}
		if len(rows) == 1 && s.Parent[j] != -1 {
			return fmt.Errorf("symbolic: column %d should be a root", j)
		}
	}
	// Supernode nesting: within a supernode, pattern(j+1) = pattern(j)\{j}.
	for k := 0; k < s.SnCount; k++ {
		for j := s.SnBegin[k]; j < s.SnBegin[k+1]-1; j++ {
			a := s.RowInd[s.ColPtr[j]+1 : s.ColPtr[j+1]]
			b := s.RowInd[s.ColPtr[j+1]:s.ColPtr[j+2]]
			if len(a) != len(b) {
				return fmt.Errorf("symbolic: supernode %d columns %d,%d not nested", k, j, j+1)
			}
			for i := range a {
				if a[i] != b[i] {
					return fmt.Errorf("symbolic: supernode %d columns %d,%d pattern mismatch", k, j, j+1)
				}
			}
		}
	}
	return nil
}

// Package snode packages LU factors into the supernodal block
// representation of the paper's §2.1: for each supernode K, a dense unit
// lower-triangular diagonal block L(K,K) and dense row-index blocks L(I,K)
// below it; for U, a dense upper-triangular U(K,K) and column-index blocks
// U(K,J) to its right, each nonzero column of full supernode height (the
// paper's equal-column-length assumption, which fundamental supernodes on a
// symmetric pattern satisfy exactly).
//
// Diagonal block inverses are precomputed, matching the paper's assumption
// that the significant solve-time FP operations are the GEMV/GEMM calls.
package snode

import (
	"fmt"

	"sptrsv/internal/factor"
	"sptrsv/internal/sparse"
)

// LBlock is one off-diagonal block L(I, K): Rows lists the global row
// indices (ascending, all within supernode I), and Val is the dense
// len(Rows) × width(K) panel. Rows and Val point into the matrix's Store.
type LBlock struct {
	I    int
	Rows []int
	Val  *sparse.Panel
}

// UBlock is one off-diagonal block U(K, J): Cols lists the global column
// indices (ascending, within supernode J), and Val is the dense
// width(K) × len(Cols) panel. Cols and Val point into the matrix's Store.
type UBlock struct {
	J    int
	Cols []int
	Val  *sparse.Panel
}

// Matrix is the supernodal form of the LU factors.
type Matrix struct {
	N       int
	SnCount int
	SnBegin []int // from symbolic.Structure
	ColToSn []int

	LDiagInv []*sparse.Panel // inverse of L(K,K), width×width
	UDiagInv []*sparse.Panel // inverse of U(K,K), width×width
	LBlocks  [][]LBlock      // per supernode K, ascending I
	UBlocks  [][]UBlock      // per supernode K, ascending J

	// Store holds every panel above; the per-supernode views point into it.
	Store Store
}

// Store is the packed form of the factors: one array of panel headers, one
// of values and one of indices, the layout SuperLU_DIST keeps per block
// column, so a solve walks them in order instead of chasing a heap object
// per block. Panels holds, in this order:
//
//   - the off-diagonal L blocks by block column K ascending, within a
//     column by ascending row supernode (the order of LBlocks[K]);
//   - the off-diagonal U blocks by block column J descending — the order
//     the U sweep visits the columns — within a column by ascending row
//     supernode;
//   - the inverses of the L diagonal blocks, then of the U diagonal
//     blocks, by supernode.
//
// Vals holds the panels' values, panel after panel in the same order. Idx
// holds each supernode's off-diagonal row pattern, supernode after
// supernode: an L block's row list L(I, K) is a run of it, which the
// mirror block U(K, I) shares as its column list. A block is named by its
// index b in Panels.
type Store struct {
	Panels []sparse.Panel
	Vals   []float64
	Idx    []int

	idx  []span  // block b's row or column list
	row  []int32 // block b's row supernode
	lPtr []int32 // column K's L blocks are lPtr[K] .. lPtr[K+1]-1
	uPtr []int32 // column J's U blocks are uPtr[J+1] .. uPtr[J]-1
}

// span is a run Idx[lo:hi].
type span struct{ lo, hi int32 }

// Index returns block b's global row list (L) or column list (U).
func (s *Store) Index(b int32) []int {
	r := s.idx[b]
	return s.Idx[r.lo:r.hi:r.hi]
}

// Row returns block b's row supernode: I of L(I, K) or of U(I, J).
func (s *Store) Row(b int32) int { return int(s.row[b]) }

// LCol returns the block range [lo, hi) of column K's L blocks.
func (s *Store) LCol(k int) (lo, hi int32) { return s.lPtr[k], s.lPtr[k+1] }

// UCol returns the block range [lo, hi) of column J's U blocks.
func (s *Store) UCol(j int) (lo, hi int32) { return s.uPtr[j+1], s.uPtr[j] }

// SnWidth returns the number of columns of supernode K.
func (m *Matrix) SnWidth(k int) int { return m.SnBegin[k+1] - m.SnBegin[k] }

// Build converts scalar LU factors into supernodal block form, written
// straight into the packed store: the row patterns size every block, then
// each supernode fills its panels in place.
func Build(f *factor.Factors) (*Matrix, error) {
	s := f.S
	n := s.SnCount
	m := &Matrix{
		N:       f.N,
		SnCount: n,
		SnBegin: s.SnBegin,
		ColToSn: s.ColToSn,
	}
	st := &m.Store

	// Index runs: each supernode's shared rows, split by row supernode.
	shared := make([][]int, n)
	nIdx := 0
	for k := range shared {
		var err error
		if shared[k], err = m.sharedRows(f, k); err != nil {
			return nil, err
		}
		nIdx += len(shared[k])
	}
	st.Idx = make([]int, 0, nIdx)
	st.lPtr = make([]int32, n+1)
	var runs []span
	var runSn []int32
	for k, sh := range shared {
		base := len(st.Idx)
		st.Idx = append(st.Idx, sh...)
		for t := 0; t < len(sh); {
			i := m.ColToSn[sh[t]]
			u := t + 1
			for u < len(sh) && m.ColToSn[sh[u]] == i {
				u++
			}
			runs = append(runs, span{int32(base + t), int32(base + u)})
			runSn = append(runSn, int32(i))
			t = u
		}
		st.lPtr[k+1] = int32(len(runs))
	}

	// Block shapes in store order; next[J] is the slot of column J's next
	// U block.
	nL := int32(len(runs))
	nb := 2 * nL
	next := make([]int32, n)
	for _, i := range runSn {
		next[i]++
	}
	st.uPtr = make([]int32, n+1)
	st.uPtr[n] = nL
	for j := n - 1; j >= 0; j-- {
		st.uPtr[j] = st.uPtr[j+1] + next[j]
		next[j] = st.uPtr[j+1]
	}
	st.Panels = make([]sparse.Panel, nb+2*int32(n))
	st.idx = make([]span, nb)
	st.row = make([]int32, nb)
	m.LBlocks, m.UBlocks = make([][]LBlock, n), make([][]UBlock, n)
	lb, ub := make([]LBlock, nL), make([]UBlock, nL)
	for k := 0; k < n; k++ {
		w := m.SnWidth(k)
		lo, hi := st.lPtr[k], st.lPtr[k+1]
		m.LBlocks[k], m.UBlocks[k] = lb[lo:hi:hi], ub[lo:hi:hi]
		for b := lo; b < hi; b++ {
			i, r := runSn[b], runs[b]
			u := next[i] // U(K, I)
			next[i]++
			st.idx[b], st.idx[u] = r, r
			st.row[b], st.row[u] = i, int32(k)
			st.Panels[b].Rows, st.Panels[b].Cols = int(r.hi-r.lo), w
			st.Panels[u].Rows, st.Panels[u].Cols = w, int(r.hi-r.lo)
			m.LBlocks[k][b-lo] = LBlock{I: int(i), Rows: st.Index(b), Val: &st.Panels[b]}
			m.UBlocks[k][b-lo] = UBlock{J: int(i), Cols: st.Index(u), Val: &st.Panels[u]}
		}
		for _, d := range [2]int32{nb + int32(k), nb + int32(n+k)} {
			st.Panels[d].Rows, st.Panels[d].Cols = w, w
		}
	}

	nv := 0
	for b := range st.Panels {
		nv += st.Panels[b].Rows * st.Panels[b].Cols
	}
	st.Vals = make([]float64, nv)
	nv = 0
	for b := range st.Panels {
		p := &st.Panels[b]
		e := nv + p.Rows*p.Cols
		p.Data = st.Vals[nv:e:e]
		nv = e
	}
	m.LDiagInv = make([]*sparse.Panel, n)
	m.UDiagInv = make([]*sparse.Panel, n)
	for k := 0; k < n; k++ {
		m.LDiagInv[k] = &st.Panels[nb+int32(k)]
		m.UDiagInv[k] = &st.Panels[nb+int32(n+k)]
		m.fillSupernode(f, k)
	}
	return m, nil
}

// sharedRows checks supernode K's column pattern and returns its shared
// off-diagonal rows: the pattern of its first column minus the in-supernode
// rows.
func (m *Matrix) sharedRows(f *factor.Factors, k int) ([]int, error) {
	s := f.S
	b := m.SnBegin[k]
	w := m.SnWidth(k)
	first := s.RowInd[s.ColPtr[b]:s.ColPtr[b+1]]
	if len(first) < w {
		return nil, fmt.Errorf("snode: supernode %d pattern shorter than width", k)
	}
	for c := 0; c < w; c++ {
		if first[c] != b+c {
			return nil, fmt.Errorf("snode: supernode %d pattern does not begin with its own columns", k)
		}
	}
	return first[w:], nil
}

// fillSupernode writes the diagonal inverses and off-diagonal block values
// of supernode K from the scalar factors into its store panels.
func (m *Matrix) fillSupernode(f *factor.Factors, k int) {
	s := f.S
	b, e := m.SnBegin[k], m.SnBegin[k+1]
	w := e - b

	// L diagonal block (unit lower triangular) and its inverse.
	ld := sparse.NewPanel(w, w)
	for c := 0; c < w; c++ {
		j := b + c
		lo := s.ColPtr[j]
		ld.Set(c, c, 1)
		for r := c + 1; r < w; r++ {
			ld.Set(r, c, f.LVal[lo+(r-c)])
		}
	}
	copy(m.LDiagInv[k].Data, sparse.InverseLowerUnit(ld).Data)

	// U diagonal block (upper triangular) and its inverse. U column j holds
	// its rows ascending and ends with the diagonal; in-supernode rows
	// b..j are the trailing j-b+1 entries.
	ud := sparse.NewPanel(w, w)
	for c := 0; c < w; c++ {
		j := b + c
		hi := f.UColPtr[j+1]
		for r := 0; r <= c; r++ {
			ud.Set(r, c, f.UVal[hi-1-(c-r)])
		}
	}
	copy(m.UDiagInv[k].Data, sparse.InverseUpper(ud).Data)

	// Off-diagonal L blocks: shared row t of the block sits at offset
	// (e-j) + t of column j's rows [j..e-1, shared...].
	t := 0
	for _, blk := range m.LBlocks[k] {
		for c := 0; c < w; c++ {
			j := b + c
			base := s.ColPtr[j] + (e - j)
			for rr := range blk.Rows {
				blk.Val.Set(rr, c, f.LVal[base+t+rr])
			}
		}
		t += len(blk.Rows)
	}

	// Off-diagonal U blocks mirror the L blocks: U(K, J) has the column
	// list that L(J, K) has as rows. Values come from the scalar U columns:
	// U(row, col) for row ∈ [b,e), col ∈ shared.
	for _, blk := range m.UBlocks[k] {
		for cc, col := range blk.Cols {
			// U column `col` lists rows ascending; the rows in [b, e) form
			// a contiguous run found by binary search.
			lo, hi := f.UColPtr[col], f.UColPtr[col+1]
			p := lowerBound(f.URowInd[lo:hi], b) + lo
			for ; p < hi && f.URowInd[p] < e; p++ {
				blk.Val.Set(f.URowInd[p]-b, cc, f.UVal[p])
			}
		}
	}
}

// lowerBound returns the first index in the ascending slice a with
// a[i] >= x, or len(a).
func lowerBound(a []int, x int) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SolveL performs the serial supernodal forward solve L·y = b, the
// reference implementation of Eq. (1).
func (m *Matrix) SolveL(b *sparse.Panel) *sparse.Panel {
	y := b.Clone()
	m.solveL(y, m.scratch(y.Cols))
	return y
}

// SolveU performs the serial supernodal backward solve U·x = y, the
// reference implementation of Eq. (2).
func (m *Matrix) SolveU(y *sparse.Panel) *sparse.Panel {
	x := y.Clone()
	m.solveU(x, m.scratch(x.Cols))
	return x
}

// Solve runs the forward then backward solve: x = U⁻¹ L⁻¹ b.
func (m *Matrix) Solve(b *sparse.Panel) *sparse.Panel {
	x := b.Clone()
	buf := m.scratch(x.Cols)
	m.solveL(x, buf)
	m.solveU(x, buf)
	return x
}

// scratch returns the working storage of a sweep, reused by every
// supernode: a right-hand-side half and a product half, each sized for the
// widest supernode.
func (m *Matrix) scratch(nrhs int) []float64 {
	w := 0
	for k := 0; k < m.SnCount; k++ {
		w = max(w, m.SnWidth(k))
	}
	return make([]float64, 2*w*nrhs)
}

// supernodeRHS copies supernode k's rows of v into the right-hand-side
// half of buf and returns them as a width×nrhs panel.
func (m *Matrix) supernodeRHS(k int, v *sparse.Panel, buf []float64) sparse.Panel {
	bk, ek := m.SnBegin[k], m.SnBegin[k+1]
	rhs := sparse.Panel{Rows: ek - bk, Cols: v.Cols, Data: buf[:(ek-bk)*v.Cols]}
	for j := 0; j < v.Cols; j++ {
		copy(rhs.Col(j), v.Col(j)[bk:ek])
	}
	return rhs
}

// diagSolve computes inv·rhs from +0 into the product half of buf, writes
// it over supernode k's rows of v, and returns it.
func (m *Matrix) diagSolve(k int, inv, rhs, v *sparse.Panel, buf []float64) sparse.Panel {
	h, bk := len(buf)/2, m.SnBegin[k]
	out := sparse.Panel{Rows: rhs.Rows, Cols: rhs.Cols, Data: buf[h : h+len(rhs.Data)]}
	clear(out.Data)
	sparse.GemmAdd(inv, rhs, &out)
	for j := 0; j < out.Cols; j++ {
		copy(v.Col(j)[bk:bk+out.Rows], out.Col(j))
	}
	return out
}

// solveL overwrites y with L⁻¹·y: per supernode, y(K) = inv(L(K,K))·y(K),
// then y(rows) −= L(I,K)·y(K) for every block below it.
func (m *Matrix) solveL(y *sparse.Panel, buf []float64) {
	st := &m.Store
	for k := 0; k < m.SnCount; k++ {
		rhs := m.supernodeRHS(k, y, buf)
		yk := m.diagSolve(k, m.LDiagInv[k], &rhs, y, buf)
		lo, hi := st.LCol(k)
		for b := lo; b < hi; b++ {
			sparse.GemmScatter(&st.Panels[b], &yk, st.Index(b), 0, y, true)
		}
	}
}

// solveU overwrites x with U⁻¹·x: per supernode from the last, x(K) −=
// U(K,J)·x(J) over every block to its right, then x(K) =
// inv(U(K,K))·x(K).
func (m *Matrix) solveU(x *sparse.Panel, buf []float64) {
	for k := m.SnCount - 1; k >= 0; k-- {
		rhs := m.supernodeRHS(k, x, buf)
		for i := range m.UBlocks[k] {
			blk := &m.UBlocks[k][i]
			sparse.GemmGather(blk.Val, x, blk.Cols, 0, &rhs, true)
		}
		m.diagSolve(k, m.UDiagInv[k], &rhs, x, buf)
	}
}

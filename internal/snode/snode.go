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
// len(Rows) × width(K) panel.
type LBlock struct {
	I    int
	Rows []int
	Val  *sparse.Panel
}

// UBlock is one off-diagonal block U(K, J): Cols lists the global column
// indices (ascending, within supernode J), and Val is the dense
// width(K) × len(Cols) panel.
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
}

// SnWidth returns the number of columns of supernode K.
func (m *Matrix) SnWidth(k int) int { return m.SnBegin[k+1] - m.SnBegin[k] }

// Build converts scalar LU factors into supernodal block form.
func Build(f *factor.Factors) (*Matrix, error) {
	s := f.S
	m := &Matrix{
		N:       f.N,
		SnCount: s.SnCount,
		SnBegin: s.SnBegin,
		ColToSn: s.ColToSn,
	}
	m.LDiagInv = make([]*sparse.Panel, m.SnCount)
	m.UDiagInv = make([]*sparse.Panel, m.SnCount)
	m.LBlocks = make([][]LBlock, m.SnCount)
	m.UBlocks = make([][]UBlock, m.SnCount)

	for k := 0; k < m.SnCount; k++ {
		if err := m.buildSupernode(f, k); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// buildSupernode fills the diagonal inverses and off-diagonal blocks of
// supernode K from the scalar factors.
func (m *Matrix) buildSupernode(f *factor.Factors, k int) error {
	s := f.S
	b, e := m.SnBegin[k], m.SnBegin[k+1]
	w := e - b

	// Shared off-diagonal row pattern = pattern of the first column minus
	// the in-supernode rows.
	first := s.RowInd[s.ColPtr[b]:s.ColPtr[b+1]]
	if len(first) < w {
		return fmt.Errorf("snode: supernode %d pattern shorter than width", k)
	}
	for c := 0; c < w; c++ {
		if first[c] != b+c {
			return fmt.Errorf("snode: supernode %d pattern does not begin with its own columns", k)
		}
	}
	shared := first[w:]

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
	m.LDiagInv[k] = sparse.InverseLowerUnit(ld)

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
	m.UDiagInv[k] = sparse.InverseUpper(ud)

	// Off-diagonal L blocks: group shared rows by their supernode.
	for t := 0; t < len(shared); {
		i := m.ColToSn[shared[t]]
		u := t
		for u < len(shared) && m.ColToSn[shared[u]] == i {
			u++
		}
		rows := shared[t:u]
		val := sparse.NewPanel(len(rows), w)
		for c := 0; c < w; c++ {
			j := b + c
			lo := s.ColPtr[j]
			// Column j's rows are [j..e-1, shared...]; shared row t sits at
			// offset (e-j) + t.
			base := lo + (e - (b + c))
			for rr := t; rr < u; rr++ {
				val.Set(rr-t, c, f.LVal[base+rr])
			}
		}
		m.LBlocks[k] = append(m.LBlocks[k], LBlock{I: i, Rows: append([]int(nil), rows...), Val: val})
		t = u
	}

	// Off-diagonal U blocks mirror the L blocks: U(K, J) has the column
	// list that L(J, K) has as rows. Values come from the scalar U columns:
	// U(row, col) for row ∈ [b,e), col ∈ shared.
	for t := 0; t < len(shared); {
		j := m.ColToSn[shared[t]]
		u := t
		for u < len(shared) && m.ColToSn[shared[u]] == j {
			u++
		}
		cols := shared[t:u]
		val := sparse.NewPanel(w, len(cols))
		for cc, col := range cols {
			// U column `col` lists rows ascending; the rows in [b, e) form
			// a contiguous run found by binary search.
			lo, hi := f.UColPtr[col], f.UColPtr[col+1]
			p := lowerBound(f.URowInd[lo:hi], b) + lo
			for ; p < hi && f.URowInd[p] < e; p++ {
				val.Set(f.URowInd[p]-b, cc, f.UVal[p])
			}
		}
		m.UBlocks[k] = append(m.UBlocks[k], UBlock{J: j, Cols: append([]int(nil), cols...), Val: val})
		t = u
	}
	return nil
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
	for k := 0; k < m.SnCount; k++ {
		rhs := m.supernodeRHS(k, y, buf)
		yk := m.diagSolve(k, m.LDiagInv[k], &rhs, y, buf)
		for i := range m.LBlocks[k] {
			blk := &m.LBlocks[k][i]
			sparse.GemmScatter(blk.Val, &yk, blk.Rows, 0, y, true)
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

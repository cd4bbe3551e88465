// Package factor computes the numeric LU factorization A = L·U on the fill
// pattern produced by internal/symbolic. It plays the role SuperLU_DIST's
// numeric factorization plays for the paper: the SpTRSV algorithms consume
// its factors; the factorization itself is not a measured quantity.
//
// L is unit lower triangular, U is upper triangular. No pivoting is
// performed — every generator in internal/gen emits strictly diagonally
// dominant matrices, for which LU without pivoting is backward stable.
package factor

import (
	"fmt"
	"math"

	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// Factors holds the numeric LU factors on the symbolic fill pattern.
type Factors struct {
	N int
	S *symbolic.Structure

	// LVal aligns with S.RowInd: column j of L is rows
	// S.RowInd[S.ColPtr[j]:S.ColPtr[j+1]] with these values; the leading
	// diagonal entry stores 1.
	LVal []float64

	// U in column form: column j's rows are URowInd[UColPtr[j]:UColPtr[j+1]],
	// ascending and ending with the diagonal j.
	UColPtr []int
	URowInd []int
	UVal    []float64
}

// Factorize runs the left-looking column LU. It fails if a pivot becomes
// zero or non-finite, which for the intended matrix class indicates a bug
// rather than a hard numerical problem.
func Factorize(a *sparse.CSR, s *symbolic.Structure) (*Factors, error) {
	n := a.N
	if n != s.N {
		return nil, fmt.Errorf("factor: dimension mismatch %d vs %d", n, s.N)
	}
	f := &Factors{N: n, S: s, LVal: make([]float64, len(s.RowInd))}

	// Upper pattern per column j = {k < j : j ∈ pattern(k)} ∪ {j}: the
	// transpose of the L pattern restricted to the strict upper triangle.
	f.UColPtr = make([]int, n+1)
	for j := 0; j < n; j++ {
		rows := s.RowInd[s.ColPtr[j]:s.ColPtr[j+1]]
		for _, r := range rows {
			f.UColPtr[r+1]++ // L entry (r, j) mirrors U entry (j, r) in column r
		}
	}
	for j := 0; j < n; j++ {
		f.UColPtr[j+1] += f.UColPtr[j]
	}
	f.URowInd = make([]int, f.UColPtr[n])
	f.UVal = make([]float64, f.UColPtr[n])
	nextU := make([]int, n)
	copy(nextU, f.UColPtr[:n])
	for k := 0; k < n; k++ {
		rows := s.RowInd[s.ColPtr[k]:s.ColPtr[k+1]]
		for _, r := range rows {
			// L pattern entry (r, k) mirrors U entry (k, r).
			f.URowInd[nextU[r]] = k
			nextU[r]++
		}
	}

	acsc := a.ToCSC()
	work := make([]float64, n)
	for j := 0; j < n; j++ {
		// Scatter A(:, j).
		rows, vals := acsc.Col(j)
		for i, r := range rows {
			work[r] = vals[i]
		}
		// Eliminate with columns k < j in ascending order.
		uStart, uEnd := f.UColPtr[j], f.UColPtr[j+1]
		for p := uStart; p < uEnd-1; p++ { // last entry is the diagonal
			k := f.URowInd[p]
			ukj := work[k]
			f.UVal[p] = ukj
			if ukj == 0 {
				continue
			}
			lo, hi := s.ColPtr[k], s.ColPtr[k+1]
			for q := lo + 1; q < hi; q++ { // skip unit diagonal
				work[s.RowInd[q]] -= ukj * f.LVal[q]
			}
		}
		// Diagonal pivot and L column.
		piv := work[j]
		f.UVal[uEnd-1] = piv
		if piv == 0 || math.IsNaN(piv) || math.IsInf(piv, 0) {
			return nil, fmt.Errorf("factor: bad pivot %v at column %d", piv, j)
		}
		lo, hi := s.ColPtr[j], s.ColPtr[j+1]
		f.LVal[lo] = 1
		for q := lo + 1; q < hi; q++ {
			f.LVal[q] = work[s.RowInd[q]] / piv
		}
		// Gather/clear touched entries.
		for p := uStart; p < uEnd; p++ {
			work[f.URowInd[p]] = 0
		}
		for q := lo; q < hi; q++ {
			work[s.RowInd[q]] = 0
		}
	}
	return f, nil
}

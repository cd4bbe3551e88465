package factor

// Test-only views of the factors: CSR forms of L and U and the scalar
// reference solve that the supernodal and distributed solves are checked
// against.

import "sptrsv/internal/sparse"

// LowerCSR returns L as a CSR matrix (including the unit diagonal).
func (f *Factors) LowerCSR() *sparse.CSR {
	b := sparse.NewBuilder(f.N)
	for j := 0; j < f.N; j++ {
		lo, hi := f.S.ColPtr[j], f.S.ColPtr[j+1]
		for q := lo; q < hi; q++ {
			b.Add(f.S.RowInd[q], j, f.LVal[q])
		}
	}
	return b.ToCSR()
}

// UpperCSR returns U as a CSR matrix.
func (f *Factors) UpperCSR() *sparse.CSR {
	b := sparse.NewBuilder(f.N)
	for j := 0; j < f.N; j++ {
		lo, hi := f.UColPtr[j], f.UColPtr[j+1]
		for q := lo; q < hi; q++ {
			b.Add(f.URowInd[q], j, f.UVal[q])
		}
	}
	return b.ToCSR()
}

// SolveSerial solves A·x = b by scalar forward/backward substitution on the
// factors — the ground-truth reference every distributed algorithm is
// checked against.
func (f *Factors) SolveSerial(b *sparse.Panel) *sparse.Panel {
	x := b.Clone()
	s := f.S
	for col := 0; col < x.Cols; col++ {
		v := x.Col(col)
		// Forward: L·y = b (unit diagonal).
		for j := 0; j < f.N; j++ {
			yj := v[j]
			if yj == 0 {
				continue
			}
			lo, hi := s.ColPtr[j], s.ColPtr[j+1]
			for q := lo + 1; q < hi; q++ {
				v[s.RowInd[q]] -= f.LVal[q] * yj
			}
		}
		// Backward: U·x = y.
		for j := f.N - 1; j >= 0; j-- {
			lo, hi := f.UColPtr[j], f.UColPtr[j+1]
			v[j] /= f.UVal[hi-1]
			xj := v[j]
			if xj == 0 {
				continue
			}
			for q := lo; q < hi-1; q++ {
				v[f.URowInd[q]] -= f.UVal[q] * xj
			}
		}
	}
	return x
}

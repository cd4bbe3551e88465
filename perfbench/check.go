package main

import (
	"fmt"
	"math"
	"math/rand"

	"sptrsv/internal/sparse"
)

// residualTol bounds the relative residual of an accepted solution. LU
// without pivoting on the generated diagonally dominant matrices lands
// near 1e-15; a solution off by one part in a billion is wrong.
const residualTol = 1e-9

// checkSolution verifies x against A·x = b column by column by relative
// residual ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞). It runs outside every timed
// interval and returns a descriptive error for a wrong answer.
func checkSolution(a *sparse.CSR, x, b *sparse.Panel) error {
	if x == nil || x.Rows != b.Rows || x.Cols != b.Cols {
		return fmt.Errorf("solution shape mismatch")
	}
	ax := sparse.NewPanel(x.Rows, x.Cols)
	a.MatPanel(x, ax)
	normA := 0.0
	for r := 0; r < a.N; r++ {
		_, vals := a.Row(r)
		s := 0.0
		for _, v := range vals {
			s += math.Abs(v)
		}
		normA = math.Max(normA, s)
	}
	for j := 0; j < b.Cols; j++ {
		rc, xc, bc := ax.Col(j), x.Col(j), b.Col(j)
		res, nx, nb := 0.0, 0.0, 0.0
		for i := range bc {
			res = math.Max(res, math.Abs(bc[i]-rc[i]))
			nx = math.Max(nx, math.Abs(xc[i]))
			nb = math.Max(nb, math.Abs(bc[i]))
		}
		rel := res / (normA*nx + nb)
		if !(rel <= residualTol) { // NaN fails too
			return fmt.Errorf("column %d: relative residual %.3g > %g", j, rel, residualTol)
		}
	}
	return nil
}

// seededPanel returns a reproducible rows×cols right-hand side with
// entries in [-1, 1) drawn from seed.
func seededPanel(rows, cols int, seed int64) *sparse.Panel {
	p := sparse.NewPanel(rows, cols)
	r := rand.New(rand.NewSource(seed))
	for i := range p.Data {
		p.Data[i] = 2*r.Float64() - 1
	}
	return p
}

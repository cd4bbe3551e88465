package snode

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sptrsv/internal/factor"
	"sptrsv/internal/gen"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

func build(t *testing.T, a *sparse.CSR, opt symbolic.Options) *Matrix {
	t.Helper()
	s, err := symbolic.Analyze(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	f, err := factor.Factorize(a, s)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomPanel(rng *rand.Rand, rows, cols int) *sparse.Panel {
	p := sparse.NewPanel(rows, cols)
	for i := range p.Data {
		p.Data[i] = rng.NormFloat64()
	}
	return p
}

func TestBlockStructureInvariants(t *testing.T) {
	a := gen.S2D9pt(16, 16, 1)
	m := build(t, a, symbolic.Options{MaxSupernode: 6})
	for k := 0; k < m.SnCount; k++ {
		prevI := k
		for _, blk := range m.LBlocks[k] {
			if blk.I <= prevI {
				t.Fatalf("supernode %d: L block order broken at I=%d", k, blk.I)
			}
			prevI = blk.I
			for i, r := range blk.Rows {
				if m.ColToSn[r] != blk.I {
					t.Fatalf("L block (%d,%d) row %d outside supernode", blk.I, k, r)
				}
				if i > 0 && blk.Rows[i] <= blk.Rows[i-1] {
					t.Fatalf("L block rows not ascending")
				}
			}
			if blk.Val.Rows != len(blk.Rows) || blk.Val.Cols != m.SnWidth(k) {
				t.Fatalf("L block panel shape mismatch")
			}
		}
		prevJ := k
		for _, blk := range m.UBlocks[k] {
			if blk.J <= prevJ {
				t.Fatalf("supernode %d: U block order broken", k)
			}
			prevJ = blk.J
			if blk.Val.Rows != m.SnWidth(k) || blk.Val.Cols != len(blk.Cols) {
				t.Fatalf("U block panel shape mismatch")
			}
		}
	}
}

func TestUBlocksMirrorLBlocks(t *testing.T) {
	// Pattern symmetry: U(K,J) columns == L(J,K) rows.
	a := gen.S2D9pt(14, 14, 2)
	m := build(t, a, symbolic.Options{MaxSupernode: 8})
	for k := 0; k < m.SnCount; k++ {
		for _, ub := range m.UBlocks[k] {
			var lb *LBlock
			for i := range m.LBlocks[k] {
				if m.LBlocks[k][i].I == ub.J {
					lb = &m.LBlocks[k][i]
				}
			}
			if lb == nil {
				t.Fatalf("U block (%d,%d) has no mirrored L block", k, ub.J)
			}
			if len(lb.Rows) != len(ub.Cols) {
				t.Fatalf("mirror length mismatch")
			}
			for i := range lb.Rows {
				if lb.Rows[i] != ub.Cols[i] {
					t.Fatalf("mirror index mismatch")
				}
			}
		}
	}
}

func TestSolveSuiteResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, mat := range gen.Suite(gen.Small) {
		if mat.A.N > 1500 {
			continue
		}
		ap, m := ndSystem(t, mat.A, 2)
		b := randomPanel(rng, mat.A.N, 2)
		x := m.Solve(b)
		if r := sparse.ResidualInf(ap, x, b); r > 1e-7 {
			t.Fatalf("%s: residual %g", mat.Name, r)
		}
	}
}

func TestDiagInversesShape(t *testing.T) {
	a := gen.S2D9pt(10, 10, 3)
	m := build(t, a, symbolic.Options{MaxSupernode: 7})
	for k := 0; k < m.SnCount; k++ {
		w := m.SnWidth(k)
		if m.LDiagInv[k].Rows != w || m.LDiagInv[k].Cols != w {
			t.Fatalf("LDiagInv %d shape", k)
		}
		if m.UDiagInv[k].Rows != w || m.UDiagInv[k].Cols != w {
			t.Fatalf("UDiagInv %d shape", k)
		}
	}
}

func TestDenseKernels(t *testing.T) {
	// GemmAdd, subtracting GemmGather and triangular inverses on a
	// hand-checked example.
	aT := sparse.NewPanel(2, 2)
	aT.Set(0, 0, 1)
	aT.Set(1, 0, 2)
	aT.Set(1, 1, 1) // unit lower [[1,0],[2,1]]
	inv := sparse.InverseLowerUnit(aT)
	if inv.At(1, 0) != -2 || inv.At(0, 0) != 1 || inv.At(1, 1) != 1 {
		t.Fatalf("InverseLowerUnit wrong: %+v", inv.Data)
	}
	u := sparse.NewPanel(2, 2)
	u.Set(0, 0, 2)
	u.Set(0, 1, 4)
	u.Set(1, 1, 8)
	uinv := sparse.InverseUpper(u)
	// [[2,4],[0,8]]⁻¹ = [[0.5, -0.25], [0, 0.125]]
	if uinv.At(0, 0) != 0.5 || uinv.At(0, 1) != -0.25 || uinv.At(1, 1) != 0.125 {
		t.Fatalf("InverseUpper wrong: %+v", uinv.Data)
	}
	c := sparse.NewPanel(2, 2)
	sparse.GemmAdd(u, uinv, c)
	if c.At(0, 0) != 1 || c.At(1, 1) != 1 || c.At(0, 1) != 0 || c.At(1, 0) != 0 {
		t.Fatalf("U·U⁻¹ != I: %+v", c.Data)
	}
	sparse.GemmGather(u, uinv, []int{0, 1}, 0, c, true)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatalf("subtracting GemmGather failed to cancel: %+v", c.Data)
		}
	}
}

func TestTriangularInversesRandomProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		l := sparse.NewPanel(n, n)
		u := sparse.NewPanel(n, n)
		for i := 0; i < n; i++ {
			l.Set(i, i, 1)
			u.Set(i, i, 1+rng.Float64())
			for j := 0; j < i; j++ {
				l.Set(i, j, rng.NormFloat64())
				u.Set(j, i, rng.NormFloat64())
			}
		}
		for name, pair := range map[string][2]*sparse.Panel{
			"l": {l, sparse.InverseLowerUnit(l)},
			"u": {u, sparse.InverseUpper(u)},
		} {
			prod := sparse.NewPanel(n, n)
			sparse.GemmAdd(pair[0], pair[1], prod)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := 0.0
					if i == j {
						want = 1
					}
					if d := prod.At(i, j) - want; d > 1e-8 || d < -1e-8 {
						_ = name
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refGemm is the block kernel the serial sweeps were written against:
// C += A·B, or C −= A·B with sub, by a j-l-i triple loop that skips zero B
// entries.
func refGemm(a, b, c *sparse.Panel, sub bool) {
	for j := 0; j < b.Cols; j++ {
		for l := 0; l < a.Cols; l++ {
			blj := b.At(l, j)
			if blj == 0 {
				continue
			}
			for i := 0; i < a.Rows; i++ {
				if sub {
					c.Set(i, j, c.At(i, j)-a.At(i, l)*blj)
				} else {
					c.Set(i, j, c.At(i, j)+a.At(i, l)*blj)
				}
			}
		}
	}
}

// oracleSolveL is the forward sweep as first written, with fresh panels
// per supernode and per block: the bitwise oracle of SolveL.
func oracleSolveL(m *Matrix, b *sparse.Panel) *sparse.Panel {
	nrhs := b.Cols
	y := b.Clone()
	for k := 0; k < m.SnCount; k++ {
		bk, ek := m.SnBegin[k], m.SnBegin[k+1]
		w := ek - bk
		rhs := sparse.NewPanel(w, nrhs)
		for j := 0; j < nrhs; j++ {
			copy(rhs.Col(j), y.Col(j)[bk:ek])
		}
		yk := sparse.NewPanel(w, nrhs)
		refGemm(m.LDiagInv[k], rhs, yk, false)
		for j := 0; j < nrhs; j++ {
			copy(y.Col(j)[bk:ek], yk.Col(j))
		}
		for _, blk := range m.LBlocks[k] {
			prod := sparse.NewPanel(len(blk.Rows), nrhs)
			refGemm(blk.Val, yk, prod, false)
			for j := 0; j < nrhs; j++ {
				col := y.Col(j)
				pc := prod.Col(j)
				for t, r := range blk.Rows {
					col[r] -= pc[t]
				}
			}
		}
	}
	return y
}

// oracleSolveU is the backward sweep as first written: the bitwise oracle
// of SolveU.
func oracleSolveU(m *Matrix, y *sparse.Panel) *sparse.Panel {
	nrhs := y.Cols
	x := y.Clone()
	for k := m.SnCount - 1; k >= 0; k-- {
		bk, ek := m.SnBegin[k], m.SnBegin[k+1]
		w := ek - bk
		rhs := sparse.NewPanel(w, nrhs)
		for j := 0; j < nrhs; j++ {
			copy(rhs.Col(j), x.Col(j)[bk:ek])
		}
		for _, blk := range m.UBlocks[k] {
			xj := sparse.NewPanel(len(blk.Cols), nrhs)
			for j := 0; j < nrhs; j++ {
				col := x.Col(j)
				xc := xj.Col(j)
				for t, c := range blk.Cols {
					xc[t] = col[c]
				}
			}
			refGemm(blk.Val, xj, rhs, true)
		}
		xk := sparse.NewPanel(w, nrhs)
		refGemm(m.UDiagInv[k], rhs, xk, false)
		for j := 0; j < nrhs; j++ {
			copy(x.Col(j)[bk:ek], xk.Col(j))
		}
	}
	return x
}

// ndSystem permutes a to its nested-dissection ordering and builds the
// supernodal factors with the separator boundaries kept, as the solver
// factors it.
func ndSystem(t *testing.T, a *sparse.CSR, depth int) (*sparse.CSR, *Matrix) {
	t.Helper()
	tr := order.NestedDissection(a, depth)
	var bounds []int
	for _, nd := range tr.Nodes {
		bounds = append(bounds, nd.Begin, nd.End, nd.SubBegin)
	}
	ap := a.Permute(tr.Perm)
	m := build(t, ap, symbolic.Options{Boundaries: bounds})
	return ap, m
}

// TestSolveMatchesOracleBitwise pins the scratch-reusing sweeps to the
// allocate-per-block sweeps they replaced, bit for bit, on both sweeps.
func TestSolveMatchesOracleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"s2d9pt", gen.S2D9pt(48, 48, 1)},
		{"nlpkkt", gen.NLPKKTLike(10, 1)},
	} {
		_, m := ndSystem(t, tc.a, 5)
		for _, nrhs := range []int{1, 3, 16} {
			b := randomPanel(rng, tc.a.N, nrhs)
			y, wantY := m.SolveL(b), oracleSolveL(m, b)
			x, wantX := m.SolveU(y), oracleSolveU(m, wantY)
			full := m.Solve(b)
			for _, c := range []struct {
				what      string
				got, want *sparse.Panel
			}{{"SolveL", y, wantY}, {"SolveU", x, wantX}, {"Solve", full, wantX}} {
				for i, v := range c.got.Data {
					if math.Float64bits(v) != math.Float64bits(c.want.Data[i]) {
						t.Fatalf("%s nrhs=%d: %s element %d = %v, oracle %v", tc.name, nrhs, c.what, i, v, c.want.Data[i])
					}
				}
			}
		}
	}
}

// TestSolveAllocsBounded pins the serial floor's allocations: Solve makes
// its output clone (panel and data) and one scratch buffer, whatever the
// supernode or block count.
func TestSolveAllocsBounded(t *testing.T) {
	_, m := ndSystem(t, gen.S2D9pt(32, 32, 1), 4)
	b := randomPanel(rand.New(rand.NewSource(34)), m.N, 4)
	if n := testing.AllocsPerRun(5, func() { m.Solve(b) }); n > 3 {
		t.Fatalf("Solve allocates %v times per call, want at most 3", n)
	}
}

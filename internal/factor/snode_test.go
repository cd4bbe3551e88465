package factor_test

// The supernodal solve checked against the scalar reference on the column
// factors. It lives here, beside the test-only reference, and imports
// snode from outside the factor package.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sptrsv/internal/factor"
	"sptrsv/internal/gen"
	"sptrsv/internal/snode"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

func randomPanel(rng *rand.Rand, rows, cols int) *sparse.Panel {
	p := sparse.NewPanel(rows, cols)
	for i := range p.Data {
		p.Data[i] = rng.NormFloat64()
	}
	return p
}

func TestSolveMatchesScalarReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(80)
		a := gen.RandomDD(rng, n, 0.12)
		s, err := symbolic.Analyze(a, symbolic.Options{MaxSupernode: 1 + rng.Intn(10)})
		if err != nil {
			return false
		}
		f, err := factor.Factorize(a, s)
		if err != nil {
			return false
		}
		m, err := snode.Build(f)
		if err != nil {
			return false
		}
		b := randomPanel(rng, n, 1+rng.Intn(3))
		want := f.SolveSerial(b)
		got := m.Solve(b)
		return got.MaxAbsDiff(want) < 1e-8
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLThenUSeparately(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := gen.RandomDD(rng, 70, 0.1)
	s, err := symbolic.Analyze(a, symbolic.Options{MaxSupernode: 5})
	if err != nil {
		t.Fatal(err)
	}
	f, err := factor.Factorize(a, s)
	if err != nil {
		t.Fatal(err)
	}
	m, err := snode.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	b := randomPanel(rng, a.N, 2)
	y := m.SolveL(b)
	// L·y must equal b.
	if r := sparse.ResidualInf(f.LowerCSR(), y, b); r > 1e-9 {
		t.Fatalf("L-solve residual %g", r)
	}
	x := m.SolveU(y)
	if r := sparse.ResidualInf(f.UpperCSR(), x, y); r > 1e-9 {
		t.Fatalf("U-solve residual %g", r)
	}
}

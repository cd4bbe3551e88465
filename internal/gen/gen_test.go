package gen

import (
	"math"
	"math/rand"
	"testing"

	"sptrsv/internal/sparse"
)

// requireWellFormed checks the invariants every generator promises: valid
// CSR structure, symmetric pattern, strict diagonal dominance.
func requireWellFormed(t *testing.T, name string, a *sparse.CSR) {
	t.Helper()
	if err := a.CheckValid(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	at := a.Transpose()
	for r := 0; r < a.N; r++ {
		cols, vals := a.Row(r)
		diag, off := 0.0, 0.0
		hasDiag := false
		for i, c := range cols {
			if c == r {
				diag = vals[i]
				hasDiag = true
			} else {
				off += math.Abs(vals[i])
			}
		}
		if !hasDiag {
			t.Fatalf("%s: row %d missing diagonal", name, r)
		}
		if diag <= off {
			t.Fatalf("%s: row %d not diagonally dominant (%v <= %v)", name, r, diag, off)
		}
	}
	// Pattern symmetry via transpose comparison.
	for r := 0; r < a.N; r++ {
		cols, _ := a.Row(r)
		tcols, _ := at.Row(r)
		if len(cols) != len(tcols) {
			t.Fatalf("%s: row %d asymmetric pattern", name, r)
		}
		for i := range cols {
			if cols[i] != tcols[i] {
				t.Fatalf("%s: row %d asymmetric pattern at %d", name, r, i)
			}
		}
	}
}

func TestSuiteWellFormed(t *testing.T) {
	for _, m := range Suite(Small) {
		requireWellFormed(t, m.Name, m.A)
		if m.A.N < 100 {
			t.Fatalf("%s: suspiciously small n=%d", m.Name, m.A.N)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := S2D9pt(16, 16, 7)
	b := S2D9pt(16, 16, 7)
	if a.NNZ() != b.NNZ() {
		t.Fatal("same seed produced different pattern")
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			t.Fatal("same seed produced different values")
		}
	}
	c := S2D9pt(16, 16, 8)
	same := true
	for i := range a.Val {
		if i < len(c.Val) && a.Val[i] != c.Val[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical values")
	}
}

func TestS2D9ptStencilShape(t *testing.T) {
	a := S2D9pt(5, 5, 1)
	// Interior point (2,2) = index 12 must have 8 neighbors + diagonal.
	cols, _ := a.Row(12)
	if len(cols) != 9 {
		t.Fatalf("interior row has %d entries, want 9", len(cols))
	}
	// Corner (0,0) has 3 neighbors + diagonal.
	cols, _ = a.Row(0)
	if len(cols) != 4 {
		t.Fatalf("corner row has %d entries, want 4", len(cols))
	}
}

func TestStencil3DReach2(t *testing.T) {
	a := Stencil3D(5, 5, 5, 2, 1)
	// Center point has 12 axis neighbors + diagonal = 13.
	center := grid3DIndex(2, 2, 2, 5, 5)
	cols, _ := a.Row(center)
	if len(cols) != 13 {
		t.Fatalf("center row has %d entries, want 13", len(cols))
	}
}

func TestNLPKKTCoupling(t *testing.T) {
	a := NLPKKTLike(4, 1)
	if a.N != 2*64 {
		t.Fatalf("n = %d, want 128", a.N)
	}
	// Field-0 vertex must couple to its field-1 twin.
	if a.At(0, 64) == 0 {
		t.Fatal("missing KKT cross-field coupling")
	}
	requireWellFormed(t, "nlpkkt", a)
}

func TestLdoorBlockDofs(t *testing.T) {
	a := LdoorLike(4, 3, 2, 1)
	if a.N != 4*3*2*3 {
		t.Fatalf("n = %d", a.N)
	}
	// dof 0 and dof 1 of the same node are coupled.
	if a.At(0, 1) == 0 {
		t.Fatal("missing intra-node dof coupling")
	}
}

func TestS1MatBlockStructure(t *testing.T) {
	a := S1MatLike(3, 4, 1)
	if a.N != 36 {
		t.Fatalf("n = %d, want 36", a.N)
	}
	// Dense diagonal block: entries (0,1)...(0,3) all present.
	for c := 1; c < 4; c++ {
		cols, _ := a.Row(0)
		found := false
		for _, cc := range cols {
			if cc == c {
				found = true
			}
		}
		if !found {
			t.Fatalf("diagonal block entry (0,%d) missing", c)
		}
	}
}

func TestGaAsSmallDiameter(t *testing.T) {
	a := GaAsLike(200, 3, 1)
	requireWellFormed(t, "gaas", a)
	// BFS from vertex 0: diameter should be small thanks to chords.
	dist := make([]int, a.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int{0}
	maxd := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		cols, _ := a.Row(v)
		for _, c := range cols {
			if dist[c] < 0 {
				dist[c] = dist[v] + 1
				if dist[c] > maxd {
					maxd = dist[c]
				}
				queue = append(queue, c)
			}
		}
	}
	for _, d := range dist {
		if d < 0 {
			t.Fatal("graph not connected")
		}
	}
	if maxd > 12 {
		t.Fatalf("diameter %d too large for a small-world analog", maxd)
	}
}

func TestRandomDDWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(60)
		a := RandomDD(rng, n, 0.1)
		requireWellFormed(t, "randomdd", a)
	}
}

func TestParseScaleRoundTrip(t *testing.T) {
	for _, s := range []Scale{Small, Medium, Large} {
		if got, err := ParseScale(s.String()); err != nil || got != s {
			t.Fatalf("round trip failed for %v: %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Fatal("unknown scale should be an error")
	}
}

func TestNamedPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Named("nope", Small)
}

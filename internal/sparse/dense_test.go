package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refGemm is the reference block kernel: the j-l-i triple loop the fast
// paths must reproduce bit for bit, C += A·B, or C −= A·B with sub (each
// product subtracted as such), skipping zero B entries.
func refGemm(a, b, c *Panel, sub bool) {
	m := a.Rows
	for j := 0; j < b.Cols; j++ {
		for l := 0; l < a.Cols; l++ {
			blj := b.Data[j*b.Rows+l]
			if blj == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				if sub {
					c.Data[j*m+i] -= a.Data[l*m+i] * blj
				} else {
					c.Data[j*m+i] += a.Data[l*m+i] * blj
				}
			}
		}
	}
}

// refGather is GemmGather by copying the gathered rows of x out first.
func refGather(a, x *Panel, idx []int, off int, c *Panel, sub bool) {
	b := NewPanel(len(idx), x.Cols)
	for j := 0; j < x.Cols; j++ {
		for l, r := range idx {
			b.Set(l, j, x.At(r-off, j))
		}
	}
	refGemm(a, b, c, sub)
}

// refScatter is GemmScatter as a product into a zeroed panel followed by a
// scatter.
func refScatter(a, b *Panel, idx []int, off int, c *Panel, sub bool) {
	p := NewPanel(a.Rows, b.Cols)
	refGemm(a, b, p, false)
	for j := 0; j < b.Cols; j++ {
		for t, r := range idx {
			if sub {
				c.Set(r-off, j, c.At(r-off, j)-p.At(t, j))
			} else {
				c.Set(r-off, j, c.At(r-off, j)+p.At(t, j))
			}
		}
	}
}

// sameBits reports whether two panels hold bitwise identical values, any
// NaN matching any NaN.
func sameBits(p, q *Panel) (int, bool) {
	for i, v := range p.Data {
		w := q.Data[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return i, false
		}
	}
	return 0, true
}

// hostile is the value pool of the kernel tests: signed zeros, subnormals,
// infinities and NaN beside ordinary values, including pairs that cancel
// exactly.
var hostile = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, -1.5e-310,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 0.5, -3, 1e300, -1e300, 1e-300}

// valueSource draws panel values: from the hostile pool or ordinary reals.
type valueSource func() float64

func randSource(rng *rand.Rand, special float64) valueSource {
	return func() float64 {
		if rng.Float64() < special {
			return hostile[rng.Intn(len(hostile))]
		}
		return rng.NormFloat64()
	}
}

// byteSource draws values from fuzz bytes, cycling: the low bits pick a
// hostile value or a small dyadic real (exact cancellations included).
func byteSource(data []byte) valueSource {
	i := 0
	return func() float64 {
		if len(data) == 0 {
			return 1
		}
		b := data[i%len(data)]
		i++
		if b&1 == 1 {
			return hostile[int(b>>1)%len(hostile)]
		}
		return float64(int8(b)) / 8
	}
}

func fill(p *Panel, src valueSource) *Panel {
	for i := range p.Data {
		p.Data[i] = src()
	}
	return p
}

// checkKernels runs GemmAdd, GemmGather and GemmScatter (both signs) on one
// m×k×n shape against the reference loops. a and b values come from va and
// vb, the initial C from vc; idx spreads rows/columns with gaps from gap.
func checkKernels(t *testing.T, m, k, n int, va, vb, vc valueSource, gap func() int) {
	t.Helper()
	a := fill(NewPanel(m, k), va)
	b := fill(NewPanel(k, n), vb)
	c := fill(NewPanel(m, n), vc)
	got, want := c.Clone(), c.Clone()
	GemmAdd(a, b, got)
	refGemm(a, b, want, false)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("GemmAdd %dx%dx%d: element %d = %v, want %v", m, k, n, i, got.Data[i], want.Data[i])
	}

	// The gathered/scattered panel has spare rows between the indexed ones
	// and an offset, as x(K) and lsum(I) rows sit inside a supernode.
	const off = 3
	spread := func(cnt int) []int {
		idx := make([]int, cnt)
		r := off
		for i := range idx {
			r += gap()
			idx[i] = r
			r++
		}
		return idx
	}
	cols := spread(k)
	x := fill(NewPanel(cols[k-1]-off+2, n), vb)
	rows := spread(m)
	cs := fill(NewPanel(rows[m-1]-off+2, n), vc)
	for _, sub := range []bool{false, true} {
		got, want := c.Clone(), c.Clone()
		GemmGather(a, x, cols, off, got, sub)
		refGather(a, x, cols, off, want, sub)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("GemmGather %dx%dx%d sub=%v: element %d = %v, want %v", m, k, n, sub, i, got.Data[i], want.Data[i])
		}
		got, want = cs.Clone(), cs.Clone()
		GemmScatter(a, b, rows, off, got, sub)
		refScatter(a, b, rows, off, want, sub)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("GemmScatter %dx%dx%d sub=%v: element %d = %v, want %v", m, k, n, sub, i, got.Data[i], want.Data[i])
		}
	}
}

// TestGemmKernelsBitExact compares every kernel path with the reference
// triple loop, bit for bit, over m, k ∈ 1..50 (past the fused kernels'
// kernelChunk) and the right-hand-side counts around the 4×2 register
// tile's edges, with hostile values in B and −0 in the initial C.
func TestGemmKernelsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	va := randSource(rng, 0.02)
	vb := randSource(rng, 0.1)
	negZero := math.Copysign(0, -1)
	vc := func() float64 {
		if rng.Intn(3) == 0 {
			return negZero
		}
		return rng.NormFloat64()
	}
	gap := func() int { return rng.Intn(3) }
	for m := 1; m <= 50; m++ {
		for k := 1; k <= 50; k++ {
			for _, n := range []int{1, 2, 3, 4, 5, 16, 17} {
				checkKernels(t, m, k, n, va, vb, vc, gap)
			}
		}
	}
}

// FuzzGemmKernels drives the same comparison from fuzzed shapes and value
// bytes; its seed corpus is under testdata/fuzz/FuzzGemmKernels.
func FuzzGemmKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, m, k, n uint8, data []byte) {
		vals := byteSource(data)
		gi := 0
		gap := func() int {
			gi++
			if len(data) == 0 {
				return 0
			}
			return int(data[gi%len(data)] >> 6)
		}
		checkKernels(t, 1+int(m)%50, 1+int(k)%50, 1+int(n)%17, vals, vals, vals, gap)
	})
}

// kernelShapes is the block shape mix of the solver (m×k×nrhs): one-column
// supernodes' diagonal and one-row L blocks (1×1), short L blocks of a
// one-column supernode (3×1), U blocks of a one-column supernode (1×8),
// and the separator blocks (8×8, 48×48).
var kernelShapes = [][3]int{
	{1, 1, 1}, {1, 1, 16}, {3, 1, 1}, {3, 1, 16}, {1, 8, 1}, {1, 8, 16},
	{8, 8, 1}, {8, 8, 16}, {48, 48, 1}, {48, 48, 16},
}

// benchPanels builds nonzero operands for one benchmark shape: A, B, C, a
// gather source x of 2k rows with idx on its even rows, and a scatter
// target of 2m rows.
func benchPanels(m, k, n int) (a, b, c, x, cs *Panel, cols, rows []int) {
	rng := rand.New(rand.NewSource(1))
	src := func() float64 { return 0.5 + rng.Float64() }
	a, b, c = fill(NewPanel(m, k), src), fill(NewPanel(k, n), src), fill(NewPanel(m, n), src)
	x, cs = fill(NewPanel(2*k, n), src), fill(NewPanel(2*m, n), src)
	for l := 0; l < k; l++ {
		cols = append(cols, 2*l)
	}
	for t := 0; t < m; t++ {
		rows = append(rows, 2*t)
	}
	return a, b, c, x, cs, cols, rows
}

func BenchmarkGemmAdd(b *testing.B) {
	for _, s := range kernelShapes {
		a, bp, c, _, _, _, _ := benchPanels(s[0], s[1], s[2])
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmAdd(a, bp, c)
			}
		})
	}
}

func BenchmarkGemmGather(b *testing.B) {
	for _, s := range kernelShapes {
		a, _, c, x, _, cols, _ := benchPanels(s[0], s[1], s[2])
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmGather(a, x, cols, 0, c, false)
			}
		})
	}
}

func BenchmarkGemmScatter(b *testing.B) {
	for _, s := range kernelShapes {
		a, bp, _, _, cs, _, rows := benchPanels(s[0], s[1], s[2])
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmScatter(a, bp, rows, 0, cs, false)
			}
		})
	}
}

package sparse

// Dense block kernels on column-major panels: the GEMMs of the supernodal
// solve. On the nested-dissection systems the solver targets (s2d9pt 64×64,
// TreeDepth 6) 2,169 of 2,417 supernodes are one column wide and 8,351 of
// 15,219 L blocks have one row, so most calls are 1×1×nrhs, 1×k×nrhs or
// m×1×nrhs; the few blocks of the top separators (up to 48×48) carry about
// three quarters of the flops. The kernels are built for that mix: a
// one-row path with one register accumulator per output column, a rank-1
// path for one-column A, and a register tile of 4 rows × 2 right-hand-side
// columns for everything else, each indexing the panel data directly.
//
// Bit-exactness contract, kept by every kernel and path here: each output
// element is updated in ascending l with the products a(i,l)·b(l,j),
// skipping every l whose b(l,j) == 0; no sum is split across l and no
// multiply-add is fused (no math.FMA; Go does not fuse on amd64 by
// itself). Holding a running sum in a register between the updates, or
// storing it and loading it back, is exact in float64. So the solver's
// goldens and the serial reference do not depend on which path served a
// block. The one license taken is that c − a·b is computed as c + a·(−b),
// which IEEE 754 defines to be the same operation; only the sign of a NaN
// result may differ.

// kernelChunk bounds the rows (scatter) or reduction length (gather) a
// fused kernel stages through its stack buffers at once. Splitting the
// rows of C, or storing a running sum into C between l chunks, changes no
// operation, so blocks of any size keep the contract.
const kernelChunk = 32

// GemmAdd computes C += A·B for column-major panels, where A is m×k, B is
// k×n, and C is m×n.
func GemmAdd(a, b, c *Panel) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if b.Rows != k || c.Rows != m || c.Cols != n {
		panic("sparse: GemmAdd shape mismatch")
	}
	ad, bd, cd := a.Data[:m*k], b.Data[:k*n], c.Data[:m*n]
	switch {
	case m == 1:
		for j := range cd {
			cd[j] = dotRow(ad, bd[j*k:][:k], cd[j])
		}
	case k == 1:
		for j, v := range bd {
			if v != 0 {
				axpy(cd[j*m:][:m], ad, v)
			}
		}
	default:
		j := 0
		for ; j+2 <= n; j += 2 {
			dot2(m, k, m, ad, bd[j*k:][:k], bd[(j+1)*k:][:k], cd[j*m:][:m], cd[(j+1)*m:][:m])
		}
		if j < n {
			dot1(m, k, m, ad, bd[j*k:][:k], cd[j*m:][:m])
		}
	}
}

// GemmGather computes C += A·B where B is gathered in place from x:
// B(l, j) = x(idx[l]−off, j). A is m×len(idx) and C is m×x.Cols. With sub
// it computes C −= A·B instead. This is the U-block update, whose column
// list selects rows of x(K) without copying them.
func GemmGather(a, x *Panel, idx []int, off int, c *Panel, sub bool) {
	m, k, n := a.Rows, a.Cols, c.Cols
	if len(idx) != k || c.Rows != m || x.Cols != n {
		panic("sparse: GemmGather shape mismatch")
	}
	ld := x.Rows
	ad, xd, cd := a.Data[:m*k], x.Data[:ld*n], c.Data[:m*n]
	if m == 1 {
		ar := ad[:len(idx)]
		for j := range cd {
			xj := xd[j*ld:][:ld]
			s := cd[j]
			for l, r := range idx {
				v := xj[r-off]
				if sub {
					v = -v
				}
				if v != 0 {
					s += ar[l] * v
				}
			}
			cd[j] = s
		}
		return
	}
	if k == 1 {
		for j := 0; j < n; j++ {
			v := xd[j*ld+idx[0]-off]
			if sub {
				v = -v
			}
			if v != 0 {
				axpy(cd[j*m:][:m], ad, v)
			}
		}
		return
	}
	var buf [2][kernelChunk]float64
	for l0 := 0; l0 < k; l0 += kernelChunk {
		kc := min(kernelChunk, k-l0)
		cols := idx[l0 : l0+kc]
		al := ad[l0*m:]
		j := 0
		for ; j+2 <= n; j += 2 {
			gather(buf[0][:kc], xd[j*ld:][:ld], cols, off, sub)
			gather(buf[1][:kc], xd[(j+1)*ld:][:ld], cols, off, sub)
			dot2(m, kc, m, al, buf[0][:kc], buf[1][:kc], cd[j*m:][:m], cd[(j+1)*m:][:m])
		}
		if j < n {
			gather(buf[0][:kc], xd[j*ld:][:ld], cols, off, sub)
			dot1(m, kc, m, al, buf[0][:kc], cd[j*m:][:m])
		}
	}
}

// GemmScatter computes P = A·B (A is m×k, B is k×n) and adds row t of P
// into row idx[t]−off of C: C(idx[t]−off, j) += P(t, j), or −= with sub.
// Every P(t, j) is summed from +0 on its own before its single update of
// C, the operation sequence of a GemmAdd into a zeroed panel followed by a
// scatter. This is the L-block update into lsum(I).
func GemmScatter(a, b *Panel, idx []int, off int, c *Panel, sub bool) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if len(idx) != m || b.Rows != k || c.Cols != n {
		panic("sparse: GemmScatter shape mismatch")
	}
	ld := c.Rows
	ad, bd, cd := a.Data[:m*k], b.Data[:k*n], c.Data[:ld*n]
	switch {
	case m == 1:
		r := idx[0] - off
		for j := 0; j < n; j++ {
			scatterAdd(cd[j*ld:][:ld], r, dotRow(ad, bd[j*k:][:k], 0), sub)
		}
	case k == 1:
		for j, v := range bd {
			cj := cd[j*ld:][:ld]
			for t, r := range idx {
				s := 0.0
				if v != 0 {
					s += ad[t] * v
				}
				scatterAdd(cj, r-off, s, sub)
			}
		}
	default:
		var buf [2][kernelChunk]float64
		for t0 := 0; t0 < m; t0 += kernelChunk {
			mc := min(kernelChunk, m-t0)
			rows := idx[t0 : t0+mc]
			at := ad[t0:]
			j := 0
			for ; j+2 <= n; j += 2 {
				p0, p1 := buf[0][:mc], buf[1][:mc]
				clear(p0)
				clear(p1)
				dot2(mc, k, m, at, bd[j*k:][:k], bd[(j+1)*k:][:k], p0, p1)
				scatterRows(cd[j*ld:][:ld], rows, off, p0, sub)
				scatterRows(cd[(j+1)*ld:][:ld], rows, off, p1, sub)
			}
			if j < n {
				p0 := buf[0][:mc]
				clear(p0)
				dot1(mc, k, m, at, bd[j*k:][:k], p0)
				scatterRows(cd[j*ld:][:ld], rows, off, p0, sub)
			}
		}
	}
}

// dotRow returns s + a·b over ascending l, skipping zero b(l).
func dotRow(a, b []float64, s float64) float64 {
	a = a[:len(b)]
	for l, v := range b {
		if v != 0 {
			s += a[l] * v
		}
	}
	return s
}

// axpy computes c += a·v elementwise.
func axpy(c, a []float64, v float64) {
	a = a[:len(c)]
	for i, x := range a {
		c[i] += x * v
	}
}

// gather fills dst[l] = x[idx[l]−off], negated with sub.
func gather(dst, x []float64, idx []int, off int, sub bool) {
	idx = idx[:len(dst)]
	for l, r := range idx {
		dst[l] = x[r-off]
	}
	if sub {
		for l, v := range dst {
			dst[l] = -v
		}
	}
}

// scatterAdd computes c[r] += s, or c[r] −= s with sub.
func scatterAdd(c []float64, r int, s float64, sub bool) {
	if sub {
		c[r] -= s
	} else {
		c[r] += s
	}
}

// scatterRows adds p[t] into c[rows[t]−off], or subtracts it with sub.
func scatterRows(c []float64, rows []int, off int, p []float64, sub bool) {
	rows = rows[:len(p)]
	for t, v := range p {
		scatterAdd(c, rows[t]-off, v, sub)
	}
}

// dot2 computes c0 += A·b0 and c1 += A·b1 for m rows and k columns of A
// (leading dimension lda) in register tiles of 4 rows × 2 columns: per l,
// four loads of A and two of B feed eight running sums.
func dot2(m, k, lda int, a, b0, b1, c0, c1 []float64) {
	b0 = b0[:k]
	b1 = b1[:len(b0)]
	c0 = c0[:m]
	c1 = c1[:len(c0)]
	i := 0
	for ; i+4 <= m; i += 4 {
		s0, s1, s2, s3 := c0[i], c0[i+1], c0[i+2], c0[i+3]
		t0, t1, t2, t3 := c1[i], c1[i+1], c1[i+2], c1[i+3]
		p := i
		for l, v := range b0 {
			ap := a[p : p+4 : p+4]
			if v != 0 {
				s0 += ap[0] * v
				s1 += ap[1] * v
				s2 += ap[2] * v
				s3 += ap[3] * v
			}
			if w := b1[l]; w != 0 {
				t0 += ap[0] * w
				t1 += ap[1] * w
				t2 += ap[2] * w
				t3 += ap[3] * w
			}
			p += lda
		}
		c0[i], c0[i+1], c0[i+2], c0[i+3] = s0, s1, s2, s3
		c1[i], c1[i+1], c1[i+2], c1[i+3] = t0, t1, t2, t3
	}
	for ; i < m; i++ {
		s, t := c0[i], c1[i]
		p := i
		for l, v := range b0 {
			x := a[p]
			if v != 0 {
				s += x * v
			}
			if w := b1[l]; w != 0 {
				t += x * w
			}
			p += lda
		}
		c0[i], c1[i] = s, t
	}
}

// dot1 computes c += A·b for m rows and k columns of A (leading dimension
// lda) in register tiles of 4 rows.
func dot1(m, k, lda int, a, b, c []float64) {
	b = b[:k]
	c = c[:m]
	i := 0
	for ; i+4 <= m; i += 4 {
		s0, s1, s2, s3 := c[i], c[i+1], c[i+2], c[i+3]
		p := i
		for _, v := range b {
			ap := a[p : p+4 : p+4]
			if v != 0 {
				s0 += ap[0] * v
				s1 += ap[1] * v
				s2 += ap[2] * v
				s3 += ap[3] * v
			}
			p += lda
		}
		c[i], c[i+1], c[i+2], c[i+3] = s0, s1, s2, s3
	}
	for ; i < m; i++ {
		s := c[i]
		p := i
		for _, v := range b {
			if v != 0 {
				s += a[p] * v
			}
			p += lda
		}
		c[i] = s
	}
}

// GemmFlops returns the floating-point operation count of one block GEMM
// with the given shapes; the machine models consume it.
func GemmFlops(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// InverseLowerUnit returns the dense inverse of a unit lower-triangular
// t×t panel (the strict lower part is read; the diagonal is taken as 1).
func InverseLowerUnit(t *Panel) *Panel {
	n := t.Rows
	if t.Cols != n {
		panic("sparse: InverseLowerUnit needs a square panel")
	}
	inv := NewPanel(n, n)
	for j := 0; j < n; j++ {
		col := inv.Col(j)
		col[j] = 1
		for i := j + 1; i < n; i++ {
			s := 0.0
			for k := j; k < i; k++ {
				s += t.At(i, k) * col[k]
			}
			col[i] = -s
		}
	}
	return inv
}

// InverseUpper returns the dense inverse of an upper-triangular t×t panel
// with nonzero diagonal.
func InverseUpper(t *Panel) *Panel {
	n := t.Rows
	if t.Cols != n {
		panic("sparse: InverseUpper needs a square panel")
	}
	inv := NewPanel(n, n)
	for j := n - 1; j >= 0; j-- {
		col := inv.Col(j)
		col[j] = 1 / t.At(j, j)
		for i := j - 1; i >= 0; i-- {
			s := 0.0
			for k := i + 1; k <= j; k++ {
				s += t.At(i, k) * col[k]
			}
			col[i] = -s / t.At(i, i)
		}
	}
	return inv
}

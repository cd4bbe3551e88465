package trsv

import (
	"fmt"
	"math"

	"sptrsv/internal/sparse"
)

// The sparse wire format. Every inter-rank solution/partial-sum message
// ships its panels as wirePanel entries instead of raw dense panels, so
// the modeled byte counts (and the simulated network charges derived from
// them) reflect what a packed MPI exchange would actually move — the
// SpComm3D direction of ROADMAP item 3.
//
// The byte model is explicit and uniform:
//
//	message  = wireEnvBytes                      (dst/tag/count envelope)
//	         + Σ per entry: wireHdrBytes         (k, rows, cols, effcols)
//	                      + 4·len(RowIdx)        (packed row indices)
//	                      + 8·len(Vals)          (float64 payload)
//
// A bundle of N panels (vecBundle) therefore models exactly N singleton
// messages minus (N−1) envelopes: the per-entry header is charged per
// panel, not per message.

const (
	// wireEnvBytes is the fixed per-message envelope (source, tag, entry
	// count — the MPI envelope analog).
	wireEnvBytes = 16
	// wireHdrBytes is the per-entry header: supernode index plus the
	// (rows, cols, effcols, nz) dimensions needed to unpack it.
	wireHdrBytes = 16
	// wireIdxBytes is the cost of one packed row index.
	wireIdxBytes = 4
)

// wirePanel is one supernode subvector in wire form. Three representations
// share the struct:
//
//   - dense:     RowIdx == nil, Vals holds Rows×EffCols values column-major
//     (EffCols < Cols drops trailing all-zero RHS columns — the
//     zero-run suppression);
//   - indexed:   RowIdx lists the nonzero rows ascending and Vals holds
//     len(RowIdx)×EffCols values column-major (Vals[j·nz+i] is
//     row RowIdx[i] of column j);
//   - empty:     EffCols == 0, no indices, no values.
//
// "Nonzero" means the IEEE-754 bit pattern is nonzero: −0.0 ships as a
// value, +0.0 is suppressed, so unpacking reconstructs every shipped row
// bit-for-bit. In the full-density dense case Vals aliases the source
// panel's storage — sending a wirePanel transfers read access exactly like
// sending the panel itself did.
type wirePanel struct {
	Rows, Cols int
	EffCols    int
	RowIdx     []int32
	Vals       []float64
}

// wireBytes is the modeled wire size of the entry, header included.
func (w *wirePanel) wireBytes() int {
	return wireHdrBytes + wireIdxBytes*len(w.RowIdx) + 8*len(w.Vals)
}

// singleBytes is the modeled size of a message carrying exactly one entry
// (identical to a one-entry bundle, keeping singletons and bundles on one
// scale).
func singleBytes(w *wirePanel) int { return wireEnvBytes + w.wireBytes() }

// packPanel converts a panel to wire form: it suppresses trailing
// all-zero columns, then chooses between the dense and the indexed
// representation by modeled size. The input panel must not be written
// while the wire form is in flight (Vals may alias it).
func packPanel(p *sparse.Panel) wirePanel {
	eff := p.Cols
	for eff > 0 && allZero(p.Col(eff-1)) {
		eff--
	}
	if eff == 0 {
		return wirePanel{Rows: p.Rows, Cols: p.Cols}
	}
	// Rows that are zero across every effective column can be indexed away
	// when the index overhead beats the dense payload.
	nz := 0
	for r := 0; r < p.Rows; r++ {
		if rowNonZero(p, r, eff) {
			nz++
		}
	}
	denseSize := 8 * p.Rows * eff
	idxSize := wireIdxBytes*nz + 8*nz*eff
	if nz == p.Rows || idxSize >= denseSize {
		if eff == p.Cols {
			return wirePanel{Rows: p.Rows, Cols: p.Cols, EffCols: eff, Vals: p.Data}
		}
		return wirePanel{Rows: p.Rows, Cols: p.Cols, EffCols: eff, Vals: p.Data[:p.Rows*eff]}
	}
	idx := make([]int32, 0, nz)
	for r := 0; r < p.Rows; r++ {
		if rowNonZero(p, r, eff) {
			idx = append(idx, int32(r))
		}
	}
	vals := make([]float64, nz*eff)
	for j := 0; j < eff; j++ {
		col := p.Col(j)
		out := vals[j*nz : (j+1)*nz]
		for i, r := range idx {
			out[i] = col[r]
		}
	}
	return wirePanel{Rows: p.Rows, Cols: p.Cols, EffCols: eff, RowIdx: idx, Vals: vals}
}

// allZero reports whether every element of v has a zero bit pattern.
func allZero(v []float64) bool {
	for _, x := range v {
		if math.Float64bits(x) != 0 {
			return false
		}
	}
	return true
}

// rowNonZero reports whether row r has a nonzero bit pattern in any of the
// first eff columns.
func rowNonZero(p *sparse.Panel, r, eff int) bool {
	for j := 0; j < eff; j++ {
		if math.Float64bits(p.Data[j*p.Rows+r]) != 0 {
			return true
		}
	}
	return false
}

// unpackPanel reconstructs the full Rows×Cols panel from wire form. The
// full-density dense case aliases Vals through an arena header (zero copy —
// the receiver gets read access to the sender's panel, exactly the
// pre-packing semantics); every other representation scatters into a fresh
// zeroed arena panel. Reconstruction is bit-exact: suppressed entries
// were +0.0 by bit pattern, and a zeroed panel holds +0.0.
func (c *rankCore) unpackPanel(w *wirePanel) *sparse.Panel {
	if w.RowIdx == nil && w.EffCols == w.Cols {
		return c.st.arena.view(w.Rows, w.Cols, w.Vals)
	}
	p := c.newPanelCols(w.Rows, w.Cols)
	scatterWire(p, w)
	return p
}

// scatterWire writes the wire entries into p (which must be zeroed at the
// target positions).
func scatterWire(p *sparse.Panel, w *wirePanel) {
	if w.RowIdx == nil {
		copy(p.Data, w.Vals)
		return
	}
	nz := len(w.RowIdx)
	for j := 0; j < w.EffCols; j++ {
		col := p.Col(j)
		vals := w.Vals[j*nz : (j+1)*nz]
		for i, r := range w.RowIdx {
			col[r] = vals[i]
		}
	}
}

// addWire accumulates the wire entries into dst (dst.Rows×dst.Cols must
// match the entry's logical shape). Suppressed entries are +0.0 and are
// skipped — see DESIGN.md §13 for the one IEEE corner (a −0.0 accumulator
// kept where a dense add would have produced +0.0) this can differ in.
func addWire(dst *sparse.Panel, w *wirePanel) {
	if dst.Rows != w.Rows || dst.Cols != w.Cols {
		panic(fmt.Sprintf("trsv: addWire shape mismatch: dst %dx%d, wire %dx%d",
			dst.Rows, dst.Cols, w.Rows, w.Cols))
	}
	if w.RowIdx == nil {
		for i, v := range w.Vals {
			dst.Data[i] += v
		}
		return
	}
	nz := len(w.RowIdx)
	for j := 0; j < w.EffCols; j++ {
		col := dst.Col(j)
		vals := w.Vals[j*nz : (j+1)*nz]
		for i, r := range w.RowIdx {
			col[r] += vals[i]
		}
	}
}

// newPanelCols is newPanel with an explicit column count (unpacking may
// run before st.nrhs panels of the solve's width exist; the shapes always
// agree in practice, but the wire header is authoritative).
func (c *rankCore) newPanelCols(rows, cols int) *sparse.Panel {
	return c.st.arena.alloc(rows, cols)
}

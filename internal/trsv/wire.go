package trsv

import "sptrsv/internal/sparse"

// The wire byte model. Every inter-rank solution/partial-sum message
// carries whole supernode subvectors — the sender's dense panels, as the
// paper's Alg. 1 tree hops and Alg. 2 sparse allreduce ship them — and is
// charged
//
//	message  = wireEnvBytes                 (dst/tag/count envelope)
//	         + Σ per panel: wireHdrBytes    (k, rows, cols)
//	                      + 8·Rows·Cols     (float64 payload)
//
// A bundle of N panels (vecBundle) therefore models exactly N singleton
// messages minus (N−1) envelopes: the per-entry header is charged per
// panel, not per message.
//
// A message aliases the sender's panels: the sender never writes a panel
// after sending it, and receivers only read it (DESIGN.md §13).

const (
	// wireEnvBytes is the fixed per-message envelope (source, tag, entry
	// count — the MPI envelope analog).
	wireEnvBytes = 16
	// wireHdrBytes is the per-panel header: supernode index plus the
	// panel's dimensions.
	wireHdrBytes = 16
)

// panelBytes is the modeled wire size of one panel entry, header included.
func panelBytes(p *sparse.Panel) int { return wireHdrBytes + 8*p.Rows*p.Cols }

// singleBytes is the modeled size of a message carrying exactly one panel
// (identical to a one-entry bundle, keeping singletons and bundles on one
// scale).
func singleBytes(p *sparse.Panel) int { return wireEnvBytes + panelBytes(p) }

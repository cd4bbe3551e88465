package bench

import (
	"fmt"

	"sptrsv/internal/trsv"
)

// CommPoint is one configuration of the wire-format comparison: the same
// solve run under the dense reference model, the packed sparse format, and
// the aggregated mode, with per-mode message and byte totals. The packed
// column must keep the dense message count exactly (packing changes
// payload representation, not the communication pattern); aggregation
// trades messages for larger coalesced payloads.
type CommPoint struct {
	Figure, Matrix, Algorithm, Layout, Machine string

	DenseMsgs, PackedMsgs, AggMsgs    int
	DenseBytes, PackedBytes, AggBytes int
}

// PackedSaving returns the fractional byte reduction of the packed format
// over the dense reference (0 when dense moved no bytes).
func (p CommPoint) PackedSaving() float64 {
	if p.DenseBytes == 0 {
		return 0
	}
	return 1 - float64(p.PackedBytes)/float64(p.DenseBytes)
}

// CommComparison runs the summary's fixed point set under the three wire
// formats and renders the comparison table — the artifact behind the
// fig4/fig9 byte-reduction numbers in EXPERIMENTS.md. Solutions are
// residual-checked on every run by the lab, so each cell is also a
// correctness point for its wire format.
func CommComparison(cfg Config) []CommPoint {
	l := newLab(cfg)
	var pts []CommPoint
	for _, pt := range summaryPoints() {
		cfg.logf("comm %s %s %s", pt.figure, pt.matrix, pt.rc.algo)
		measure := func(comm trsv.CommMode) (msgs, bytes int) {
			rc := pt.rc
			rc.comm = comm
			rep := l.run(pt.matrix, rc)
			for _, t := range rep.Raw.Timers {
				for _, c := range t.MsgsSent {
					msgs += c
				}
				for _, c := range t.BytesSent {
					bytes += c
				}
			}
			return msgs, bytes
		}
		dm, db := measure(trsv.CommDense)
		pm, pb := measure(trsv.CommPacked)
		am, ab := measure(trsv.CommAggregated)
		pts = append(pts, CommPoint{
			Figure: pt.figure, Matrix: pt.matrix, Algorithm: pt.rc.algo.String(),
			Layout:    fmt.Sprintf("%dx%dx%d", pt.rc.layout.Px, pt.rc.layout.Py, pt.rc.layout.Pz),
			Machine:   pt.rc.model.Name,
			DenseMsgs: dm, PackedMsgs: pm, AggMsgs: am,
			DenseBytes: db, PackedBytes: pb, AggBytes: ab,
		})
	}

	if cfg.Out != nil {
		fmt.Fprintln(cfg.Out, "wire-format comparison (packed must keep the dense message count; aggregated may trade messages for coalesced payloads)")
		var cells [][]string
		for _, p := range pts {
			cells = append(cells, []string{
				p.Figure, p.Matrix, p.Algorithm, p.Layout, p.Machine,
				fmt.Sprint(p.DenseMsgs), fmt.Sprint(p.PackedMsgs), fmt.Sprint(p.AggMsgs),
				fmt.Sprint(p.DenseBytes), fmt.Sprint(p.PackedBytes), fmt.Sprint(p.AggBytes),
				fmt.Sprintf("%.1f%%", 100*p.PackedSaving()),
			})
		}
		table(cfg.Out, []string{"figure", "matrix", "algorithm", "layout", "machine",
			"dense msgs", "packed msgs", "agg msgs", "dense B", "packed B", "agg B", "packed ΔB"}, cells)
	}
	return pts
}

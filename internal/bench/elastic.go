package bench

import (
	"fmt"

	"sptrsv/internal/ctree"
	"sptrsv/internal/fault"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/trsv"
)

// ElasticPoint is one entry of the elasticity sweep: an algorithm run under
// a network straggler (every message one rank sends is delivered late) in
// strict mode or in elastic mode at some staleness bound, with the total
// modeled time — for elastic runs, including every iterative-refinement
// pass — and the refinement outcome.
type ElasticPoint struct {
	Matrix string
	Algo   string
	P, Pz  int
	// DelayMS is the injected per-message delivery delay in milliseconds
	// (0 for the healthy reference rows).
	DelayMS float64
	// Mode is "strict" or "elastic S=<n>".
	Mode string
	// Seconds is the end-to-end modeled time: the elastic rows fold in all
	// refinement passes, so strict and elastic compare at equal rigor —
	// both end in a verified solution.
	Seconds float64
	// VsStrict is Seconds / the strict Seconds of the same (algo, delay)
	// point: < 1 means elastic finished its verified solution sooner.
	VsStrict float64
	// RefinePasses, StaleSupernodes, Residual describe the elastic
	// refinement (zeros and the machine-precision residual under strict).
	RefinePasses    int
	StaleSupernodes int
	Residual        float64
}

// elasticDelays is the straggler severity axis in seconds: the smallest
// point is absorbed by the staleness slack (zero forcing, elastic == strict)
// while the largest makes every strict algorithm serialize on tens of late
// hops — the paper's degraded-node regime.
func elasticDelays(quick bool) []float64 {
	if quick {
		return []float64{20e-3}
	}
	return []float64{2e-3, 10e-3, 20e-3}
}

// elasticStaleness is the staleness-bound axis in dependency levels.
func elasticStaleness(quick bool) []int {
	if quick {
		return []int{4}
	}
	return []int{4, 16}
}

// ElasticSweep measures the elastic stale-synchronous mode against strict
// execution under network stragglers on the fig4 CPU points (both 3D
// algorithms, Cori model): straggler severity × staleness bound. Strict
// execution waits out every delayed delivery, so its makespan grows
// linearly with the injected delay; an elastic rank instead forces progress
// once it falls S levels behind, finishes on its deadline schedule
// independent of the delay, and pays for the stale reads with iterative
// refinement passes until the true residual meets the tolerance. Every
// point ends residual-verified (lab.run panics otherwise), so the sweep is
// also the end-to-end proof of the "verified solution or typed fault"
// contract under elasticity.
func ElasticSweep(cfg Config) []ElasticPoint {
	// Each point names its own staleness: strict points must run strict
	// whatever elastic group the caller passed, and elastic points refine
	// to the default tolerance.
	cfg.Staleness, cfg.RefineTol, cfg.RefineMax = 0, 0, 0
	l := newLab(cfg)
	model := machine.CoriHaswell()
	matrix := "s2d9pt"
	p, pz := 64, 4
	if cfg.Quick {
		p, pz = 16, 2
	}
	px, py := grid.Square2D(p / pz)
	layout := grid.Layout{Px: px, Py: py, Pz: pz}

	algos := []struct {
		name  string
		algo  trsv.Algorithm
		trees ctree.Kind
	}{
		{"proposed-3d", trsv.Proposed3D, ctree.Binary},
		{"baseline-3d", trsv.Baseline3D, ctree.Flat},
	}

	var pts []ElasticPoint
	for _, a := range algos {
		for _, d := range append([]float64{0}, elasticDelays(cfg.Quick)...) {
			var plan *fault.Plan
			if d > 0 {
				plan = &fault.Plan{Seed: 1, NetDelay: map[int]float64{0: d}}
			}
			back := trsv.SimBackend{Opts: runtime.Options{Faults: plan}}

			cfg.logf("elastic %s %s P=%d Pz=%d delay=%gms strict", matrix, a.name, p, pz, d*1e3)
			strict := l.run(matrix, runCfg{
				layout: layout, algo: a.algo, trees: a.trees, model: model, nrhs: 1,
				backend: back,
			})
			pts = append(pts, ElasticPoint{
				Matrix: matrix, Algo: a.name, P: p, Pz: pz, DelayMS: d * 1e3,
				Mode: "strict", Seconds: strict.Time, VsStrict: 1,
			})
			for _, s := range elasticStaleness(cfg.Quick) {
				cfg.logf("elastic %s %s P=%d Pz=%d delay=%gms S=%d", matrix, a.name, p, pz, d*1e3, s)
				el := l.run(matrix, runCfg{
					layout: layout, algo: a.algo, trees: a.trees, model: model, nrhs: 1,
					backend: back, staleness: s,
				})
				pts = append(pts, ElasticPoint{
					Matrix: matrix, Algo: a.name, P: p, Pz: pz, DelayMS: d * 1e3,
					Mode: fmt.Sprintf("elastic S=%d", s), Seconds: el.Time,
					VsStrict:     el.Time / strict.Time,
					RefinePasses: el.RefinePasses, StaleSupernodes: el.StaleSupernodes,
					Residual: el.Residual,
				})
			}
		}
	}

	if cfg.Out != nil {
		fmt.Fprintln(cfg.Out, "Elasticity sweep: strict vs elastic under network stragglers (Cori model, DES backend)")
		fmt.Fprintln(cfg.Out, "every row ends in a residual-verified solution; elastic times include all refinement passes")
		var cells [][]string
		for _, pt := range pts {
			res := "-"
			if pt.RefinePasses > 0 {
				res = fmt.Sprintf("%.3g", pt.Residual)
			}
			cells = append(cells, []string{
				pt.Matrix, pt.Algo, fmt.Sprint(pt.P), fmt.Sprint(pt.Pz),
				fmt.Sprintf("%g", pt.DelayMS), pt.Mode,
				fmt.Sprintf("%.4g", pt.Seconds*1e3),
				fmt.Sprintf("%.3f", pt.VsStrict),
				fmt.Sprint(pt.RefinePasses), fmt.Sprint(pt.StaleSupernodes), res,
			})
		}
		table(cfg.Out, []string{"matrix", "algorithm", "P", "Pz", "delay [ms]", "mode",
			"time [ms]", "vs strict", "refine", "stale sn", "refined residual"}, cells)
	}
	return pts
}

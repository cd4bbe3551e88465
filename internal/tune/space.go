package tune

import (
	"fmt"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/trsv"
)

// Space enumerates the paper-legal candidate configurations for solving
// sys on machine m with exactly p ranks:
//
//   - Pz is a power of two dividing p, bounded by the separator tree's
//     binary top levels (2^TreeDepth);
//   - CPU algorithms (Proposed3D, Baseline3D) use the most square Px≈Py
//     split of the remaining p/Pz ranks, the paper's Fig. 4 rule. The
//     proposed algorithm sweeps the three tree kinds; the baseline has no
//     tree optimization (per-node-group flat trees), so it gets one entry;
//   - GPU candidates exist only when m has GPU parameters: GPUMulti with
//     Py=1 (the Alg. 5 restriction) over every tree kind, and GPUSingle
//     when the layout collapses to 1×1×p (Alg. 4).
//
// Every emitted candidate passes core.ValidateConfig — the same validator
// core.NewSolver runs — so probing a candidate cannot fail on
// compatibility grounds.
func Space(sys *core.System, m *machine.Model, p int) []core.Config {
	var out []core.Config
	add := func(l grid.Layout, algo trsv.Algorithm, kind ctree.Kind) {
		cfg := core.Config{Layout: l, Algorithm: algo, Trees: kind, Machine: m}
		if core.ValidateConfig(sys, cfg) == nil {
			out = append(out, cfg)
		}
	}
	cpuKinds := []ctree.Kind{ctree.Flat, ctree.Binary, ctree.Auto}
	for pz := 1; pz <= p && pz <= sys.Tree.NumLeaves(); pz *= 2 {
		if p%pz != 0 {
			continue
		}
		px, py := grid.Square2D(p / pz)
		for _, kind := range cpuKinds {
			add(grid.Layout{Px: px, Py: py, Pz: pz}, trsv.Proposed3D, kind)
		}
		add(grid.Layout{Px: px, Py: py, Pz: pz}, trsv.Baseline3D, ctree.Flat)
		if m.GPU != nil {
			for _, kind := range cpuKinds {
				add(grid.Layout{Px: p / pz, Py: 1, Pz: pz}, trsv.GPUMulti, kind)
			}
			if p/pz == 1 {
				add(grid.Layout{Px: 1, Py: 1, Pz: pz}, trsv.GPUSingle, ctree.Flat)
			}
		}
	}
	return out
}

// DefaultConfig is the 2D reference point the tuner reports against: the
// proposed algorithm on the most square 2D grid with no replication and
// auto trees. Run always probes it, so the tuned choice can never be
// slower than it. It is not what the solve service picks without the
// tuner; that is grid.ForBudget's replicated layout.
func DefaultConfig(m *machine.Model, p int) core.Config {
	px, py := grid.Square2D(p)
	return core.Config{
		Layout:    grid.Layout{Px: px, Py: py, Pz: 1},
		Algorithm: trsv.Proposed3D,
		Trees:     ctree.Auto,
		Machine:   m,
	}
}

// candKey is the deterministic identity of a candidate, used for sorting
// tie-breaks and duplicate suppression.
func candKey(cfg core.Config) string {
	return fmt.Sprintf("%s/%dx%dx%d/%s",
		cfg.Algorithm, cfg.Layout.Px, cfg.Layout.Py, cfg.Layout.Pz, cfg.Trees)
}

// Package bench regenerates every table and figure of the paper's
// evaluation (Table 1, Figs. 4–11) on the discrete-event backend. Each
// experiment returns typed rows — tests assert on the shapes the paper
// claims — and renders an aligned text table.
//
// Absolute times are modeled, not measured on the original systems; the
// quantities that must match the paper are the shapes: who wins, by
// roughly what factor, and where scaling stops. EXPERIMENTS.md records the
// comparison.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// Config controls the experiment sweeps.
type Config struct {
	Scale gen.Scale
	// Quick shrinks every sweep (fewer ranks, fewer points) so the whole
	// set runs in seconds; used by unit tests and testing.B benchmarks.
	Quick bool
	// Verbose echoes progress lines to Out while sweeping.
	Verbose bool
	Out     io.Writer
	// Staleness, RefineTol, and RefineMax are the elastic group every
	// experiment point runs under (strict when Staleness is 0). Fault-free
	// sweeps are bit-identical to strict at any staleness, so
	// regenerating a figure with Staleness > 0 is a cheap end-to-end check
	// that elasticity is overhead-free when healthy. The elasticity sweep
	// sets its own staleness per point and ignores these.
	Staleness int
	RefineTol float64
	RefineMax int
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose && c.Out != nil {
		fmt.Fprintf(c.Out, "# "+format+"\n", args...)
	}
}

// treeDepth is the recorded ND depth: supports Pz ≤ 64 everywhere.
const treeDepth = 6

// lab caches factored systems and right-hand sides across experiments —
// factorization dominates setup time, exactly as the paper notes about its
// own runs.
type lab struct {
	cfg     Config
	systems map[string]*core.System
	rhs     map[string]*sparse.Panel
	solvers map[string]*core.Solver
}

func newLab(cfg Config) *lab {
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	return &lab{
		cfg:     cfg,
		systems: map[string]*core.System{},
		rhs:     map[string]*sparse.Panel{},
		solvers: map[string]*core.Solver{},
	}
}

func (l *lab) system(name string) *core.System {
	if s, ok := l.systems[name]; ok {
		return s
	}
	m := gen.Named(name, l.cfg.Scale)
	l.cfg.logf("factorizing %s (n=%d, nnz=%d)", name, m.A.N, m.A.NNZ())
	sys, err := core.Factorize(m.A, core.FactorOptions{TreeDepth: treeDepth})
	if err != nil {
		panic(fmt.Sprintf("bench: factorize %s: %v", name, err))
	}
	l.systems[name] = sys
	return sys
}

// b returns a deterministic right-hand side for the matrix with nrhs
// columns (in the original ordering).
func (l *lab) b(name string, nrhs int) *sparse.Panel {
	key := fmt.Sprintf("%s/%d", name, nrhs)
	if p, ok := l.rhs[key]; ok {
		return p
	}
	sys := l.system(name)
	p := sparse.NewPanel(sys.A.N, nrhs)
	for i := range p.Data {
		p.Data[i] = 1 + float64(i%7)/7
	}
	l.rhs[key] = p
	return p
}

// runCfg describes one solve configuration.
type runCfg struct {
	layout  grid.Layout
	algo    trsv.Algorithm
	trees   ctree.Kind
	model   *machine.Model
	nrhs    int
	backend trsv.Backend
	// staleness, when positive, is the point's own staleness bound; 0
	// inherits the lab Config's elastic group.
	staleness int
}

// run solves once and returns the report, verifying the residual: every
// benchmark point is also a correctness check. Solvers (and the plans they
// hold) are cached across calls: distribution plans are reusable and
// read-only during solves.
func (l *lab) run(name string, rc runCfg) *core.Report {
	sys := l.system(name)
	if rc.backend == nil {
		rc.backend = trsv.SimBackend{}
	}
	if rc.staleness == 0 {
		rc.staleness = l.cfg.Staleness
	}
	// The backend is part of the key: a traced and an untraced solver for
	// the same configuration must not share a cache slot.
	key := fmt.Sprintf("%s/%+v/%v/%v/%s/%d/%+v/%d-%g-%d", name, rc.layout, rc.algo, rc.trees, rc.model.Name, rc.nrhs, rc.backend,
		rc.staleness, l.cfg.RefineTol, l.cfg.RefineMax)
	solver := l.solvers[key]
	if solver == nil {
		var err error
		solver, err = core.NewSolver(sys, core.Config{
			Layout:    rc.layout,
			Algorithm: rc.algo,
			Trees:     rc.trees,
			Machine:   rc.model,
			Backend:   rc.backend,
			Staleness: rc.staleness,
			RefineTol: l.cfg.RefineTol,
			RefineMax: l.cfg.RefineMax,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: solver %s %+v: %v", name, rc.layout, err))
		}
		l.solvers[key] = solver
	}
	b := l.b(name, rc.nrhs)
	x, rep, err := solver.Solve(b)
	if err != nil {
		panic(fmt.Sprintf("bench: solve %s %+v: %v", name, rc.layout, err))
	}
	if r := solver.Residual(x, b); math.IsNaN(r) || r > 1e-6 {
		panic(fmt.Sprintf("bench: %s %+v residual %g", name, rc.layout, r))
	}
	return rep
}

// table renders rows as an aligned table.
func table(w io.Writer, header []string, rows [][]string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		for i, c := range r {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// stats returns mean, min, max of v, skipping NaN entries (phase spans are
// NaN on ranks that never reached the phase — see Result.MarkSpan). All-NaN
// or empty input yields zeros.
func stats(v []float64) (mean, lo, hi float64) {
	n := 0
	for _, x := range v {
		if math.IsNaN(x) {
			continue
		}
		if n == 0 {
			lo, hi = x, x
		}
		n++
		mean += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return mean / float64(n), lo, hi
}

// pzSweep returns the power-of-two Pz values ≤ limit that divide p.
func pzSweep(p, limit int) []int {
	var out []int
	for pz := 1; pz <= limit && pz <= p; pz *= 2 {
		if p%pz == 0 {
			out = append(out, pz)
		}
	}
	return out
}

// sortedKeysStr returns sorted map keys (helper for deterministic output).
func sortedKeysStr[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

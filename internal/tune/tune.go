// Package tune is the performance-model-driven autotuner: given a
// factored System, a machine model, and a rank budget P, it picks the
// best core.Config (algorithm × Px×Py×Pz × tree kind) instead of making
// the caller guess one.
//
// Every headline result in the paper comes from a hand-swept
// configuration space — Pz sweet spots around 16 on CPU, binary trees
// winning only at large Px·Py, baseline-3D sometimes losing to 2D, 2D GPU
// scaling dying at the node boundary. The deterministic discrete-event
// backend is exactly the cost model those sweeps interrogate, so the
// tuner searches it mechanically:
//
//  1. a search-space generator (Space) enumerates only paper-legal
//     candidates, filtered through core.ValidateConfig;
//  2. a cheap analytic pre-score (α·messages + β·bytes + flops from the
//     supernodal block structure, no solve) ranks them and keeps the
//     top-k;
//  3. the survivors are probed by real concurrent DES solves (the Solver
//     is concurrent-safe; one goroutine per candidate under a bounded
//     worker pool) and scored by virtual makespan with deterministic
//     tie-breaking.
//
// A persistent Cache keyed by matrix fingerprint × machine × P × nrhs
// class skips the whole search on re-tuning: a warm hit performs zero
// probe solves.
package tune

import (
	"fmt"
	"sort"
	"sync"

	"sptrsv/internal/core"
	"sptrsv/internal/machine"
	"sptrsv/internal/sparse"
)

// Options controls one tuning run. The zero value asks for the defaults.
type Options struct {
	// NRHS is the right-hand-side count to tune for; 0 means 1.
	NRHS int
	// TopK is how many candidates survive the analytic pre-score into the
	// DES probe stage; 0 means 10. The naive default config is always
	// probed in addition, so the tuned choice can never lose to it.
	TopK int
	// Workers bounds the concurrent probe solves; 0 means 4.
	Workers int
	// Cache, when non-nil, is consulted before searching and updated
	// after. A warm hit returns immediately with zero probe solves.
	Cache *Cache
	// Staleness, RefineTol, and RefineMax are stamped onto the returned
	// configurations (chosen and default) so the caller deploys the tuned
	// choice with the elastic group it will actually run. Probes stay
	// strict: they run fault-free, where elastic execution is identical by
	// construction, so the staleness bound cannot change the ranking.
	Staleness int
	RefineTol float64
	RefineMax int
}

func (o Options) withDefaults() Options {
	if o.NRHS <= 0 {
		o.NRHS = 1
	}
	if o.TopK <= 0 {
		o.TopK = 10
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// Scored is one probed candidate with both of its scores.
type Scored struct {
	Config   core.Config
	PreScore float64 // analytic stage-one estimate, seconds
	Makespan float64 // DES probe makespan, seconds
}

// Result is the outcome of one tuning run.
type Result struct {
	// Config is the chosen configuration and Makespan its DES makespan.
	Config   core.Config
	Makespan float64
	// Default is the fixed configuration the tuner guarantees not to lose
	// to ({Proposed3D, Px≈Py, Pz=1, AutoTrees}), with its makespan.
	Default         core.Config
	DefaultMakespan float64
	// Probes counts the DES probe solves performed: 0 on a warm cache
	// hit, len(Probed) otherwise.
	Probes int
	// FromCache reports whether the result was served from the cache.
	FromCache bool
	// SpaceSize is the number of legal candidates before pruning.
	SpaceSize int
	// Probed lists the probed candidates, best first (empty on a warm
	// cache hit).
	Probed []Scored
}

// stamp applies the caller's elastic group to a tuned configuration.
func (o Options) stamp(cfg core.Config) core.Config {
	cfg.Staleness = o.Staleness
	cfg.RefineTol = o.RefineTol
	cfg.RefineMax = o.RefineMax
	return cfg
}

// Run tunes sys for machine m and rank budget p.
//
// Run is deterministic: two runs on the same inputs (cold cache) probe
// the same candidates and return the identical configuration — the DES is
// deterministic, candidate order is fixed, and makespan ties break on the
// candidate's lexicographic key.
func Run(sys *core.System, m *machine.Model, p int, opt Options) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("tune: rank budget p=%d must be positive", p)
	}
	opt = opt.withDefaults()
	key := Key(sys, m, p, opt.NRHS)

	if opt.Cache != nil {
		if e, ok := opt.Cache.Get(key); ok {
			if cfg, err := e.Config(m); err == nil && core.ValidateConfig(sys, cfg) == nil {
				mTuneRuns.With(m.Name, "hit").Inc()
				def := DefaultConfig(m, p)
				return &Result{
					Config: opt.stamp(cfg), Makespan: e.Makespan,
					Default: opt.stamp(def), DefaultMakespan: e.Default,
					FromCache: true,
				}, nil
			}
			// An undecodable or no-longer-valid entry is a miss; the
			// fresh result below overwrites it.
		}
	}

	space := Space(sys, m, p)
	if len(space) == 0 {
		return nil, fmt.Errorf("tune: no legal configuration for p=%d on %s", p, m.Name)
	}

	// Stage one: analytic pre-score, keep the top-k (plus the default).
	st := newSnStats(sys)
	scored := make([]Scored, len(space))
	for i, cfg := range space {
		scored[i] = Scored{Config: cfg, PreScore: preScore(sys, st, cfg, opt.NRHS)}
	}
	sort.SliceStable(scored, func(i, j int) bool {
		if scored[i].PreScore != scored[j].PreScore {
			return scored[i].PreScore < scored[j].PreScore
		}
		return candKey(scored[i].Config) < candKey(scored[j].Config)
	})
	if len(scored) > opt.TopK {
		scored = scored[:opt.TopK]
	}
	def := DefaultConfig(m, p)
	defIdx := -1
	for i := range scored {
		if candKey(scored[i].Config) == candKey(def) {
			defIdx = i
			break
		}
	}
	if defIdx < 0 {
		defIdx = len(scored)
		scored = append(scored, Scored{Config: def, PreScore: preScore(sys, st, def, opt.NRHS)})
	}

	// Stage two: concurrent DES probe solves on a bounded worker pool.
	b := probeRHS(sys, opt.NRHS)
	errs := make([]error, len(scored))
	var wg sync.WaitGroup
	sem := make(chan struct{}, opt.Workers)
	for i := range scored {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			scored[i].Makespan, errs[i] = probe(sys, scored[i].Config, b)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tune: probing %s: %w", candKey(scored[i].Config), err)
		}
	}

	// Makespan ties break lexicographically.
	better := func(a, b Scored) bool {
		if a.Makespan != b.Makespan {
			return a.Makespan < b.Makespan
		}
		return candKey(a.Config) < candKey(b.Config)
	}
	best := 0
	for i := 1; i < len(scored); i++ {
		if better(scored[i], scored[best]) {
			best = i
		}
	}
	mTuneRuns.With(m.Name, "miss").Inc()
	mTuneProbes.With(m.Name).Add(float64(len(scored)))
	res := &Result{
		Config: opt.stamp(scored[best].Config), Makespan: scored[best].Makespan,
		Default: opt.stamp(def), DefaultMakespan: scored[defIdx].Makespan,
		Probes: len(scored), SpaceSize: len(space),
	}
	res.Probed = append(res.Probed, scored...)
	sort.SliceStable(res.Probed, func(i, j int) bool {
		return better(res.Probed[i], res.Probed[j])
	})

	if opt.Cache != nil {
		e := Entry{
			Px: res.Config.Layout.Px, Py: res.Config.Layout.Py, Pz: res.Config.Layout.Pz,
			Algorithm: res.Config.Algorithm.String(), Trees: res.Config.Trees.String(),
			Makespan: res.Makespan, Default: res.DefaultMakespan,
		}
		if err := opt.Cache.Put(key, e); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probeRHS builds the deterministic right-hand side all probes share (the
// same pattern the bench harnesses use). Probes only read it.
func probeRHS(sys *core.System, nrhs int) *sparse.Panel {
	b := sparse.NewPanel(sys.A.N, nrhs)
	for i := range b.Data {
		b.Data[i] = 1 + float64(i%7)/7
	}
	return b
}

// probe builds a solver for the candidate and runs one DES solve,
// returning the virtual makespan.
func probe(sys *core.System, cfg core.Config, b *sparse.Panel) (float64, error) {
	solver, err := core.NewSolver(sys, cfg)
	if err != nil {
		return 0, err
	}
	_, rep, err := solver.Solve(b)
	if err != nil {
		return 0, err
	}
	return rep.Time, nil
}

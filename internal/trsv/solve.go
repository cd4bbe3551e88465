package trsv

import (
	"fmt"

	"sptrsv/internal/dist"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sched"
	"sptrsv/internal/sparse"
)

// Algorithm selects a distributed SpTRSV variant.
type Algorithm int

const (
	// Proposed3D is the paper's contribution (Alg. 1): one inter-grid
	// synchronization via sparse allreduce. With Pz=1 it is the 2D solver
	// with the plan's tree kind.
	Proposed3D Algorithm = iota
	// Baseline3D is the level-by-level 3D algorithm of Sao et al. (ICS
	// '19) with O(log Pz) inter-grid exchanges and per-node-group flat
	// communication. With Pz=1 it is the classic 2D solver.
	Baseline3D
	// GPUSingle is the proposed 3D algorithm with each 2D grid collapsed
	// to one GPU (Px=Py=1, Alg. 4): no intra-grid communication, task-
	// parallel execution on SM slots. It runs the GPUMulti (Alg. 5)
	// handler on a one-rank grid. Simulation backend only.
	GPUSingle
	// GPUMulti is the proposed 3D algorithm with NVSHMEM-style multi-GPU
	// 2D grids (Alg. 5), Py=1 layouts. Simulation backend only.
	GPUMulti
	// Proposed3DNaiveAR is the proposed algorithm with the sparse
	// allreduce replaced by a per-node strawman exchange — the §3.2
	// ablation.
	Proposed3DNaiveAR
)

func (a Algorithm) String() string {
	switch a {
	case Proposed3D:
		return "proposed-3d"
	case Baseline3D:
		return "baseline-3d"
	case GPUSingle:
		return "gpu-single"
	case GPUMulti:
		return "gpu-multi"
	case Proposed3DNaiveAR:
		return "proposed-3d-naive-allreduce"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ElasticStats reports what an elastic solve actually skipped; SolveOpts
// callers pass a pointer to receive them after the run.
type ElasticStats struct {
	// StaleSupernodes counts supernode rows (across ranks and both
	// sweeps) whose solve consumed at least one stale or missing input
	// because a staleness deadline forced their dependencies closed.
	// Zero means the elastic run never forced anything — its result is
	// bit-identical to the strict run's.
	StaleSupernodes int
	// ForcedTicks counts the staleness-deadline timer pops that found
	// their phase still open and forced it.
	ForcedTicks int
}

// SolveOpts tunes solve execution without touching the plan.
type SolveOpts struct {
	// Staleness selects the blocking discipline of cross-rank
	// dependencies. S ≤ 0, the default, is the strict solve: every rank
	// blocks until each dependency arrives, so a single straggler
	// stretches the whole critical path. S > 0 is the elastic
	// (stale-synchronous) solve with staleness bound S in dependency
	// levels: each phase's forcing deadline is (phase depth + S) level
	// quanta after the previous phase's, and a rank past it proceeds with
	// its last-received (possibly stale, initially zero) inputs instead of
	// blocking, recording which supernodes consumed stale data so the
	// caller can run iterative refinement (core.Solver does). The elastic
	// solve needs a Configurable backend, which arms the deadline ticks.
	Staleness int
	// Elastic, when non-nil, receives the run's stale-consumption stats.
	Elastic *ElasticStats
}

// handlerFactory checks that algo can run on the plan's layout and the
// model, and returns the constructor of its per-rank handlers: the shell
// around the algorithm's dependency structure.
func handlerFactory(algo Algorithm, p *dist.Plan, model *machine.Model, b, x *sparse.Panel, opts SolveOpts) (func(rank int) *rankCore, error) {
	switch algo {
	case Proposed3D, Proposed3DNaiveAR:
		naive := algo == Proposed3DNaiveAR
		return func(rank int) *rankCore {
			h := &new3dRank{naive: naive}
			return h.init(h, p, model, rank, b, x, opts)
		}, nil
	case Baseline3D:
		if err := p.BuildBaseline(); err != nil {
			return nil, err
		}
		return func(rank int) *rankCore {
			h := &base3dRank{}
			return h.init(h, p, model, rank, b, x, opts)
		}, nil
	case GPUSingle, GPUMulti:
		if algo == GPUSingle && (p.Layout.Px != 1 || p.Layout.Py != 1) {
			return nil, fmt.Errorf("trsv: gpu-single requires Px=Py=1, got %dx%d", p.Layout.Px, p.Layout.Py)
		}
		if p.Layout.Py != 1 {
			return nil, fmt.Errorf("trsv: gpu-multi requires Py=1, got Py=%d", p.Layout.Py)
		}
		if model.GPU == nil {
			return nil, fmt.Errorf("trsv: model %s has no GPU parameters", model.Name)
		}
		return func(rank int) *rankCore {
			h := &gpuRank{gpu: model.GPU}
			return h.init(h, p, model, rank, b, x, opts)
		}, nil
	}
	return nil, fmt.Errorf("trsv: unknown algorithm %v", algo)
}

// Solve runs one distributed triangular solve of L·U·x = b on the given
// backend, writing the solution (in the permuted ordering of the plan's
// factors, zeroed first) into the caller-provided panel x, and returns the
// per-rank timing result. Each rank handler draws its per-solve execution
// state from its schedule pool and returns it when the run completes, so
// steady-state repeated solves allocate little beyond the solution
// subvectors themselves.
//
// The plan is only read, so any number of Solve calls may run concurrently
// against the same plan, each with its own RHS and output.
func Solve(p *dist.Plan, model *machine.Model, algo Algorithm, back Backend, b, x *sparse.Panel, opts SolveOpts) (*runtime.Result, error) {
	if b.Rows != p.M.N {
		return nil, fmt.Errorf("trsv: rhs has %d rows, matrix has %d", b.Rows, p.M.N)
	}
	if x.Rows != b.Rows || x.Cols != b.Cols {
		return nil, fmt.Errorf("trsv: output panel is %dx%d, rhs is %dx%d", x.Rows, x.Cols, b.Rows, b.Cols)
	}
	// Derive (or fetch the cached) level/DAG schedule up front so a build
	// failure surfaces as an error, not a handler panic.
	if _, err := sched.Of(p); err != nil {
		return nil, err
	}
	if opts.Staleness > 0 {
		cb, ok := back.(Configurable)
		if !ok {
			return nil, fmt.Errorf("trsv: elastic solve requires a built-in backend (SimBackend or PoolBackend), got %T", back)
		}
		back = cb.WithOptions(func(o *runtime.Options) { o.ElasticTag = tagElastic })
	}
	x.Zero()
	factory, err := handlerFactory(algo, p, model, b, x, opts)
	if err != nil {
		return nil, err
	}

	// Track the ranks so their pooled solve states can be released once
	// the backend has fully quiesced (both backends only return after every
	// rank has stopped executing).
	ranks := make([]*rankCore, p.Layout.Size())
	res, err := back.Run(p.Layout.Size(), model.Net(), func(rank int) runtime.Handler {
		ranks[rank] = factory(rank)
		return ranks[rank]
	})
	// Collect each rank's kernel tallies before the states go back to the
	// pool (release zeroes them), then publish the solve once.
	var total solveCounts
	for _, c := range ranks {
		if c != nil {
			total.accumulate(c.st.counts)
			c.releaseState()
		}
	}
	publishSolve(algo, total, err != nil)
	if opts.Elastic != nil {
		opts.Elastic.StaleSupernodes = total.staleRows
		opts.Elastic.ForcedTicks = total.forcedTicks
	}
	if err != nil {
		// A traced run that died with a typed fault salvages its partial
		// result (clocks, timers, events up to the failure) — pass it
		// through so fault diagnostics can stitch the death into a trace.
		return res, err
	}
	return res, nil
}

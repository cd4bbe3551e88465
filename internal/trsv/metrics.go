package trsv

import "sptrsv/internal/metrics"

// Solve metrics, published once per solve by Solve after the backend
// run has quiesced. The kernels bump plain integers on the per-rank solve
// state (single-writer during a run), so the hot paths never touch the
// registry and the discrete-event schedule is unperturbed.
var (
	mSolves = metrics.Default().Counter("sptrsv_trsv_solves",
		"Distributed triangular solves, by algorithm and outcome.", "algorithm", "status")
	mPhaseOps = metrics.Default().Counter("sptrsv_trsv_phase_ops",
		"Numeric kernel invocations summed over ranks, by solve phase: diagonal solves (diag_y, diag_x) and off-diagonal block applications (l_block, u_block).",
		"algorithm", "phase")
	mARRounds = metrics.Default().Counter("sptrsv_trsv_allreduce_rounds",
		"Inter-grid exchange rounds summed over ranks: sparse-allreduce reduce/bcast bundles, or the naive per-node butterfly exchanges.",
		"algorithm", "kind")
	mSweeps = metrics.Default().Counter("sptrsv_trsv_level_sweeps",
		"Level sweeps summed over ranks (kind=sweeps) and the tasks they covered (kind=tasks).",
		"algorithm", "kind")
	mStale = metrics.Default().Counter("sptrsv_trsv_stale_supernodes",
		"Elastic-mode supernode solves that consumed stale or missing inputs after a staleness-deadline forced their phase closed, summed over ranks; zero on strict solves.",
		"algorithm")
	mForcedTicks = metrics.Default().Counter("sptrsv_trsv_forced_ticks",
		"Elastic-mode staleness-deadline ticks that fired with their phase still open and forced it, summed over ranks.",
		"algorithm")
)

// solveCounts tallies one rank's kernel and exchange activity during a
// single solve. It lives on solveState, is reset by release, and is summed
// across ranks before publication.
type solveCounts struct {
	diag        [2]int // diagonal panel solves, by sweep
	blocks      [2]int // off-diagonal block products applied, by sweep
	arReduce    int    // sparse-allreduce reduce bundles merged
	arBcast     int    // sparse-allreduce broadcast bundles installed
	naiveRounds int    // strawman butterfly exchanges merged
	sweeps      int    // level sweeps run
	sweepTasks  int    // tasks covered by those sweeps
	staleRows   int    // elastic: supernode solves that consumed stale inputs
	forcedTicks int    // elastic: deadline ticks that forced an open phase
}

func (a *solveCounts) accumulate(b solveCounts) {
	for sw := range a.diag {
		a.diag[sw] += b.diag[sw]
		a.blocks[sw] += b.blocks[sw]
	}
	a.arReduce += b.arReduce
	a.arBcast += b.arBcast
	a.naiveRounds += b.naiveRounds
	a.sweeps += b.sweeps
	a.sweepTasks += b.sweepTasks
	a.staleRows += b.staleRows
	a.forcedTicks += b.forcedTicks
}

// publishSolve records one solve's aggregate tallies under the algorithm
// label.
func publishSolve(algo Algorithm, total solveCounts, failed bool) {
	a := algo.String()
	status := "ok"
	if failed {
		status = "error"
	}
	mSolves.With(a, status).Inc()
	type pc struct {
		phase string
		n     int
	}
	for _, p := range []pc{
		{"diag_y", total.diag[sweepL]}, {"diag_x", total.diag[sweepU]},
		{"l_block", total.blocks[sweepL]}, {"u_block", total.blocks[sweepU]},
	} {
		if p.n > 0 {
			mPhaseOps.With(a, p.phase).Add(float64(p.n))
		}
	}
	for _, p := range []pc{
		{"reduce", total.arReduce}, {"bcast", total.arBcast},
		{"naive", total.naiveRounds},
	} {
		if p.n > 0 {
			mARRounds.With(a, p.phase).Add(float64(p.n))
		}
	}
	for _, p := range []pc{
		{"sweeps", total.sweeps}, {"tasks", total.sweepTasks},
	} {
		if p.n > 0 {
			mSweeps.With(a, p.phase).Add(float64(p.n))
		}
	}
	if total.staleRows > 0 {
		mStale.With(a).Add(float64(total.staleRows))
	}
	if total.forcedTicks > 0 {
		mForcedTicks.With(a).Add(float64(total.forcedTicks))
	}
}

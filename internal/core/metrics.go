package core

import (
	"sptrsv/internal/metrics"
	"sptrsv/internal/trsv"
)

// Core-layer metrics: one histogram observation per solve, published after
// the result is in hand, plus buffer-pool and batch accounting. Labels
// follow the tuner's cache-key vocabulary — algorithm, backend, machine
// name, matrix fingerprint — so a scrape distinguishes workloads the same
// way the autotuner does.
var (
	mSolveSeconds = metrics.Default().Histogram("sptrsv_core_solve_seconds",
		"Solve makespan per completed solve: virtual seconds under the des backend, wall seconds under pool.",
		nil, "algorithm", "backend", "machine", "matrix")
	mResidual = metrics.Default().Gauge("sptrsv_core_residual",
		"Most recent ‖A·x − b‖∞ computed by Solver.Residual.", "algorithm", "machine", "matrix")
	mBatchPanels = metrics.Default().Counter("sptrsv_core_batch_panels",
		"SolveBatch panels by outcome.", "status")
	mBufPool = metrics.Default().Counter("sptrsv_core_solve_buffers",
		"Per-solve permutation-buffer pool traffic: hit (recycled, right shape), resize (recycled, reallocated), miss (newly allocated).", "outcome")
	mRefinePasses = metrics.Default().Counter("sptrsv_refine_passes",
		"Iterative-refinement passes run after elastic solves; zero-pass elastic solves (already within tolerance) add nothing.",
		"algorithm", "machine", "matrix")
	mRefinedResidual = metrics.Default().Gauge("sptrsv_core_refined_residual",
		"Verified ‖b − A·x‖∞ of the most recent elastic solve after refinement.",
		"algorithm", "machine", "matrix")
)

// Fingerprint identifies the factored matrix for metric labels and bench
// records: dimension, factor fill, supernode count, and recorded tree
// depth — the same structural identity the tuner's cache key uses. It is
// formatted once per System, so labelling a solve's metrics allocates
// nothing.
func (s *System) Fingerprint() string { return s.fingerprint }

// backendName names the configured backend for the backend label.
func backendName(b trsv.Backend) string {
	switch b.(type) {
	case trsv.SimBackend:
		return "des"
	case trsv.PoolBackend:
		return "pool"
	}
	return "custom"
}

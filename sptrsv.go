// Package sptrsv is a Go reproduction of "Unified Communication
// Optimization Strategies for Sparse Triangular Solver on CPU and GPU
// Clusters" (Liu, Ding, Sao, Williams, Li — SC '23).
//
// It provides distributed-memory sparse triangular solve (SpTRSV) on
// supernodal LU factors over a 3D process layout Px × Py × Pz, with the
// paper's four algorithm variants:
//
//   - Proposed3D — the paper's contribution: one 2D L-solve over each
//     grid's whole elimination-tree path, a single inter-grid sparse
//     allreduce, one 2D U-solve, with flat or binary communication trees.
//   - Baseline3D — the level-by-level 3D algorithm it improves on
//     (Sao et al., ICS '19), with O(log Pz) inter-grid synchronizations.
//   - GPUSingle / GPUMulti — the GPU execution models of the paper's
//     Algorithms 4 and 5 (thread-block tasks on SM slots; NVSHMEM-style
//     one-sided broadcasts), simulation backend only.
//
// Two execution backends run the same algorithms: a deterministic
// discrete-event simulator with machine models of Cori Haswell, Perlmutter
// and Crusher (regenerates the paper's figures), and a real
// goroutine-per-rank pool (wall-clock benchmarks on the host). On both, a
// solve executes as level sweeps over the plan's precomputed dependency
// schedule (see DESIGN.md §11), and every inter-rank message carries
// whole dense supernode segments, the sender's own panels (§13). Neither
// the sweep nor the message format has an option. Every simulated run performs the real
// numeric solve, so results are always verifiable against the serial
// reference.
//
// Quickstart — let the autotuner pick the algorithm, grid shape, and tree
// kind for a rank budget:
//
//	a := sptrsv.S2D9pt(256, 256, 1)          // 2D Poisson analog
//	sys, _ := sptrsv.Factorize(a, sptrsv.FactorOptions{})
//	solver, _ := sptrsv.NewAutoSolver(sys, sptrsv.CoriHaswell(), 64)
//	b := sptrsv.NewPanel(a.N, 1) // fill with the right-hand side
//	x, report, _ := solver.Solve(b)
//	_ = x
//	fmt.Printf("solve time %.3g s\n", report.Time)
//
// Or pin every knob by hand:
//
//	solver, _ := sptrsv.NewSolver(sys, sptrsv.Config{
//		Layout:    sptrsv.Layout{Px: 4, Py: 4, Pz: 4},
//		Algorithm: sptrsv.Proposed3D,
//		Trees:     sptrsv.BinaryTrees,
//		Machine:   sptrsv.CoriHaswell(),
//	})
//
// A Solver is an immutable plan plus pooled per-solve state: build it once
// and reuse it across right-hand sides. Solve is safe for concurrent use
// from multiple goroutines, and SolveBatch runs one solve per panel
// concurrently on a shared Solver.
package sptrsv

import (
	"io"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/fault"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/mtx"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
	"sptrsv/internal/tune"
)

// Matrix and vector types.
type (
	// CSR is a square sparse matrix in compressed sparse row form.
	CSR = sparse.CSR
	// Builder assembles CSR matrices from coordinate entries.
	Builder = sparse.Builder
	// Panel is a dense column-major rows×cols matrix used for right-hand
	// sides and solutions (cols = nrhs).
	Panel = sparse.Panel
)

// NewBuilder returns a coordinate builder for an n×n matrix.
func NewBuilder(n int) *Builder { return sparse.NewBuilder(n) }

// NewPanel allocates a zeroed rows×cols panel.
func NewPanel(rows, cols int) *Panel { return sparse.NewPanel(rows, cols) }

// ResidualInf computes max over columns of ‖A·x − b‖∞.
func ResidualInf(a *CSR, x, b *Panel) float64 { return sparse.ResidualInf(a, x, b) }

// Preprocessing pipeline.
type (
	// FactorOptions controls ordering depth and supernode width.
	FactorOptions = core.FactorOptions
	// System is a factored matrix ready to distribute and solve.
	System = core.System
	// Config selects layout, algorithm, trees, machine, backend, and the
	// blocking discipline. Staleness 0 (the default) waits for every
	// dependency — the classical SpTRSV contract. Staleness S > 0 bounds
	// how long: a rank that falls more than S dependency levels behind the
	// modeled schedule forces progress with the contributions received so
	// far, and the solver repairs the stale reads with iterative
	// refinement until the true residual meets RefineTol (default 1e-8) or
	// returns a typed NumericalError — a verified solution either way.
	// Fault-free elastic runs force nothing and are bit-identical to
	// strict (see DESIGN.md §14).
	Config = core.Config
	// Solver executes distributed solves for one System and Config.
	Solver = core.Solver
	// Report summarizes one solve (makespan, breakdown, per-rank spans).
	Report = core.Report
)

// Factorize orders, analyzes and LU-factors a symmetric-pattern matrix.
func Factorize(a *CSR, opt FactorOptions) (*System, error) { return core.Factorize(a, opt) }

// Fingerprint returns the structural identity of a factored system — its
// dimension, factor fill nnz(L)+nnz(U), supernode count, and recorded
// separator-tree depth. It is the cache key the autotuner's persistent
// cache, the benchmark summary, and the metric labels all agree on.
//
// Stability guarantees: the fingerprint is a deterministic function of the
// matrix nonzero pattern and the FactorOptions — the same matrix factored
// with the same options yields the same fingerprint in any process on any
// platform. It deliberately ignores numeric values (two systems with equal
// pattern but different values are structurally interchangeable for
// planning and tuning) — which is exactly why it must never name a
// matrix: the solve service identifies uploaded matrices by a content
// hash over pattern and values (server.ContentHash) and reserves the
// fingerprint for the plan and tuning caches. Treat it as an opaque
// equality-comparable key: the textual format may gain fields when the
// planning-relevant structure grows, and such a change invalidates old
// keys loudly (a cache miss) rather than silently colliding.
func Fingerprint(sys *System) string { return sys.Fingerprint() }

// NewSolver validates a configuration and builds the distribution plan.
func NewSolver(sys *System, cfg Config) (*Solver, error) { return core.NewSolver(sys, cfg) }

// ValidateConfig checks an algorithm × layout × machine combination
// without building the distribution plan — the same rules NewSolver
// enforces.
func ValidateConfig(sys *System, cfg Config) error { return core.ValidateConfig(sys, cfg) }

// Autotuning. AutoConfig searches the paper-legal configuration space
// (algorithm × Px×Py×Pz × tree kind) for the rank budget p with a
// two-stage search — an analytic pre-score followed by concurrent
// discrete-event probe solves — and returns the best configuration found.
// The result is deterministic and never slower (in modeled makespan) than
// the fixed default {Proposed3D, Px≈Py, Pz=1, AutoTrees}.
type (
	// TuneOptions controls Tune (probe budget, nrhs class, persistent
	// cache).
	TuneOptions = tune.Options
	// TuneResult reports the chosen config, its makespan, the default's
	// makespan, and how many probe solves the search ran.
	TuneResult = tune.Result
	// TuneCache is the persistent tuned-config cache (one JSON file under
	// a caller-chosen directory), safe for concurrent use.
	TuneCache = tune.Cache
)

// OpenTuneCache loads or initializes a persistent tuned-config cache under
// dir. Pass it via TuneOptions.Cache to make repeated Tune calls for the
// same matrix × machine × rank budget skip the search entirely. An empty
// dir keeps the cache in memory only.
func OpenTuneCache(dir string) (*TuneCache, error) { return tune.OpenCache(dir) }

// Tune runs the autotuner with explicit options and returns the full
// search report.
func Tune(sys *System, m *MachineModel, p int, opt TuneOptions) (*TuneResult, error) {
	return tune.Run(sys, m, p, opt)
}

// AutoConfig returns the best configuration for solving sys on machine m
// with p ranks, using default tuning options (nrhs=1, no persistent
// cache).
func AutoConfig(sys *System, m *MachineModel, p int) (Config, error) {
	res, err := tune.Run(sys, m, p, tune.Options{})
	if err != nil {
		return Config{}, err
	}
	return res.Config, nil
}

// NewAutoSolver tunes and builds in one step: the Solver equivalent of
// NewSolver(sys, AutoConfig(sys, m, p)).
func NewAutoSolver(sys *System, m *MachineModel, p int) (*Solver, error) {
	cfg, err := AutoConfig(sys, m, p)
	if err != nil {
		return nil, err
	}
	return core.NewSolver(sys, cfg)
}

// Layout is a Px × Py × Pz process layout (Pz must be a power of two).
type Layout = grid.Layout

// Square2D splits p ranks into the most square Px×Py grid (Px ≥ Py), the
// paper's rule for Fig. 4.
func Square2D(p int) (px, py int) { return grid.Square2D(p) }

// Algorithm variants. Proposed3DNaiveAR swaps the sparse allreduce for a
// per-node collective — the ablation of the paper's §3.2 optimization.
const (
	Proposed3D        = trsv.Proposed3D
	Baseline3D        = trsv.Baseline3D
	GPUSingle         = trsv.GPUSingle
	GPUMulti          = trsv.GPUMulti
	Proposed3DNaiveAR = trsv.Proposed3DNaiveAR
)

// Communication tree kinds for the intra-grid broadcasts and reductions.
// AutoTrees picks flat below a fan-out threshold and binary above it.
const (
	FlatTrees   = ctree.Flat
	BinaryTrees = ctree.Binary
	AutoTrees   = ctree.Auto
)

// Machine models of the paper's three systems.
var (
	CoriHaswell   = machine.CoriHaswell
	PerlmutterCPU = machine.PerlmutterCPU
	PerlmutterGPU = machine.PerlmutterGPU
	CrusherCPU    = machine.CrusherCPU
	CrusherGPU    = machine.CrusherGPU
)

// MachineModel is a simulator machine description; see the machine
// constructors above, or build a custom one.
type MachineModel = machine.Model

// Backends.
type (
	// SimBackend runs on the deterministic discrete-event simulator.
	SimBackend = trsv.SimBackend
	// PoolBackend runs one goroutine per rank in real time.
	PoolBackend = trsv.PoolBackend
)

// GoroutinePool returns a PoolBackend with default settings.
func GoroutinePool() PoolBackend { return PoolBackend{Pool: runtime.Pool{}} }

// Fault injection and the typed failure taxonomy. A FaultPlan in a
// backend's runtime.Options (or one solve's, via Solver.SolveWith) injects
// deterministic faults — straggler ranks, message latency jitter, message
// drops, rank crashes — into solves; see DESIGN.md §9. Every runtime
// failure a solve can hit (injected or not) comes back as one of the typed
// errors below rather than crashing the process.
type (
	// FaultPlan describes the faults to inject into a run; the zero value
	// injects nothing, and a plan is reusable across concurrent solves.
	FaultPlan = fault.Plan
	// DropRule selects messages for a FaultPlan to discard.
	DropRule = fault.DropRule
	// StallError: a rank stopped making progress (pool watchdog fired, or
	// the simulator reached quiescence with messages still expected).
	StallError = fault.StallError
	// CrashError: an injected rank crash prevented completion.
	CrashError = fault.CrashError
	// PanicError: a panic recovered inside a rank body.
	PanicError = fault.PanicError
	// ProtocolError: a violated runtime or algorithm invariant.
	ProtocolError = fault.ProtocolError
	// NumericalError: a non-finite value in the RHS or the solution, or
	// an elastic solve whose iterative refinement could not reach
	// Config.RefineTol within Config.RefineMax passes.
	NumericalError = fault.NumericalError
	// BatchError maps each SolveBatch panel to its error (nil = success).
	BatchError = core.BatchError
)

// FaultWildcard matches any rank or tag in a DropRule.
const FaultWildcard = fault.Wildcard

// IsFault reports whether err is (or wraps) one of the typed fault errors —
// a diagnosed runtime failure, as opposed to a usage error such as a
// wrong-shaped right-hand side.
func IsFault(err error) bool { return fault.IsFault(err) }

// Generators for the paper's six matrix analogs (see internal/gen for the
// substitution rationale) plus scale-parameterized suite access.
var (
	S2D9pt         = gen.S2D9pt
	NLPKKTLike     = gen.NLPKKTLike
	LdoorLike      = gen.LdoorLike
	DielFilterLike = gen.DielFilterLike
	GaAsLike       = gen.GaAsLike
	S1MatLike      = gen.S1MatLike
)

// TestMatrix is a generated analog of one of the paper's test matrices.
type TestMatrix = gen.Matrix

// Suite generates the full Table 1 analog set at the given scale
// ("small", "medium" or "large"). Like the generators it panics on an
// unknown name, so a misconfigured experiment fails immediately.
func Suite(scale string) []TestMatrix {
	sc, err := gen.ParseScale(scale)
	if err != nil {
		panic("sptrsv: " + err.Error())
	}
	return gen.Suite(sc)
}

// ReadMatrixMarket parses a Matrix Market coordinate stream (real/integer,
// general/symmetric) into a CSR matrix, so the paper's original SuiteSparse
// matrices can be used when available.
func ReadMatrixMarket(r io.Reader) (*CSR, error) { return mtx.Read(r) }

// ReadMatrixMarketFile reads a .mtx file from disk.
func ReadMatrixMarketFile(path string) (*CSR, error) { return mtx.ReadFile(path) }

// WriteMatrixMarket emits a matrix in coordinate real general form.
func WriteMatrixMarket(w io.Writer, a *CSR) error { return mtx.Write(w, a) }

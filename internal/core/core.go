// Package core is the high-level API of the reproduction: it runs the full
// preprocessing pipeline (ordering → symbolic analysis → numeric LU →
// supernodal packaging) and exposes a Solver that executes any of the
// paper's distributed SpTRSV algorithms on a chosen machine model and
// backend. The root package sptrsv re-exports this API.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"sptrsv/internal/ctree"
	"sptrsv/internal/dist"
	"sptrsv/internal/factor"
	"sptrsv/internal/fault"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/order"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sched"
	"sptrsv/internal/snode"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
	"sptrsv/internal/trsv"
)

// FactorOptions controls preprocessing.
type FactorOptions struct {
	// TreeDepth is the number of recorded nested-dissection levels; the
	// resulting System supports Pz up to 2^TreeDepth. 0 means 6 (Pz ≤ 64);
	// anything outside 0..20 is an error. Factorize records at most
	// ⌈log2 n⌉ levels: deeper ones hold no vertex and change no factor.
	TreeDepth int
	// MaxSupernode caps supernode width; ≤ 0 means the symbolic default
	// (symbolic.DefaultMaxSupernode).
	MaxSupernode int
}

// Resolve returns the options Factorize runs with on an n×n matrix:
// TreeDepth 0 becomes 6 and is then capped at ⌈log2 n⌉, and MaxSupernode
// ≤ 0 becomes symbolic.DefaultMaxSupernode, so two option sets that
// resolve alike factor alike. A TreeDepth outside 0..20 is an error.
//
// The cap changes no factor: split hands each half at most ⌈len/2⌉
// vertices, so every vertex set recorded at level ⌈log2 n⌉ holds at most
// one vertex, and deeper levels would add only empty tree nodes.
func (o FactorOptions) Resolve(n int) (FactorOptions, error) {
	if o.TreeDepth < 0 || o.TreeDepth > 20 {
		return o, fmt.Errorf("core: tree depth %d outside 0..20", o.TreeDepth)
	}
	if o.TreeDepth == 0 {
		o.TreeDepth = 6
	}
	o.TreeDepth = min(o.TreeDepth, bits.Len(uint(max(n-1, 0))))
	if o.MaxSupernode <= 0 {
		o.MaxSupernode = symbolic.DefaultMaxSupernode
	}
	return o, nil
}

// System holds a factored matrix ready to be distributed and solved: only
// what solving and planning read. The column-form factors and the
// symbolic fill pattern live only while Factorize packs them into SN.
type System struct {
	A     *sparse.CSR // original matrix
	APerm *sparse.CSR // nested-dissection permuted matrix
	Perm  []int       // old index → new index
	Tree  *order.Tree
	SN    *snode.Matrix

	nnzLU       int    // see NNZFactors; counted once by Factorize
	fingerprint string // see Fingerprint; formatted once by Factorize
}

// Factorize orders, analyzes, and LU-factors a (which must have symmetric
// nonzero pattern and admit LU without pivoting, e.g. be diagonally
// dominant), returning a reusable System.
func Factorize(a *sparse.CSR, opt FactorOptions) (*System, error) {
	opt, err := opt.Resolve(a.N)
	if err != nil {
		return nil, err
	}
	return factorize(a, opt)
}

// factorize runs the pipeline with options already resolved.
func factorize(a *sparse.CSR, opt FactorOptions) (*System, error) {
	tree := order.NestedDissection(a, opt.TreeDepth)
	ap := a.Permute(tree.Perm)
	s, err := symbolic.Analyze(ap, symbolic.Options{
		MaxSupernode: opt.MaxSupernode,
		Boundaries:   grid.Boundaries(tree),
	})
	if err != nil {
		return nil, fmt.Errorf("core: symbolic analysis: %w", err)
	}
	f, err := factor.Factorize(ap, s)
	if err != nil {
		return nil, fmt.Errorf("core: numeric factorization: %w", err)
	}
	sn, err := snode.Build(f)
	if err != nil {
		return nil, fmt.Errorf("core: supernodal packaging: %w", err)
	}
	sys := &System{A: a, APerm: ap, Perm: tree.Perm, Tree: tree, SN: sn, nnzLU: 2*s.FillNNZ() - s.N}
	sys.fingerprint = fmt.Sprintf("n=%d nnzlu=%d sn=%d depth=%d",
		a.N, sys.nnzLU, sn.SnCount, tree.Depth)
	return sys, nil
}

// NNZFactors returns nnz(L)+nnz(U) counting the diagonal once, the
// quantity the paper's Table 1 reports.
func (s *System) NNZFactors() int { return s.nnzLU }

// Config selects how a Solver runs.
type Config struct {
	Layout    grid.Layout    // Px × Py × Pz process layout
	Algorithm trsv.Algorithm // Proposed3D, Baseline3D, GPUSingle, GPUMulti
	Trees     ctree.Kind     // intra-grid communication trees (CPU algorithms)
	Machine   *machine.Model // performance model for the simulation backend
	// Backend runs the solves and carries their runtime options (event
	// tracing, fault injection, the pool's watchdog): nil means the
	// discrete-event simulator with default options, trsv.SimBackend{}.
	Backend trsv.Backend
	// Staleness selects the blocking discipline. 0, the default, is the
	// strict solve: every cross-rank dependency blocks until it arrives.
	// S > 0 is the elastic (stale-synchronous) solve with staleness bound
	// S in dependency levels: ranks past the deadline proceed with stale
	// inputs and the solve is finished by iterative refinement (see
	// RefineTol/RefineMax). It needs the sim or pool backend.
	Staleness int
	// RefineTol is the elastic-mode acceptance threshold on the true
	// residual ‖b − A·x‖∞: after an elastic solve the Solver verifies the
	// residual and runs iterative refinement passes until it is ≤
	// RefineTol. 0 means 1e-8. Ignored by the strict solve.
	RefineTol float64
	// RefineMax caps the number of refinement passes an elastic solve
	// may run before giving up with a typed fault.NumericalError. 0 means
	// 48 — headroom for the measured worst-case per-pass contraction
	// (~0.6× under heavy forcing) to carry an O(1) forced-solve error
	// below the default RefineTol; forced passes are cheap (their makespan
	// is the staleness deadline, not the straggler's lateness), so a
	// generous cap trades bounded extra modeled time for far fewer
	// spurious non-convergence faults. Ignored by the strict solve.
	RefineMax int
}

// elastic reports whether cfg asks for stale-synchronous execution.
func (c Config) elastic() bool { return c.Staleness > 0 }

// refineTol resolves the zero-value default acceptance threshold.
func (c Config) refineTol() float64 {
	if c.RefineTol == 0 {
		return 1e-8
	}
	return c.RefineTol
}

// refineMax resolves the zero-value default pass cap.
func (c Config) refineMax() int {
	if c.RefineMax == 0 {
		return 48
	}
	return c.RefineMax
}

// Solver executes distributed triangular solves for one System and Config.
// A Solver is an immutable plan plus a pool of per-solve buffers: after
// NewSolver nothing in it is written by a solve, so Solve and SolveBatch
// are safe for concurrent use from multiple goroutines.
type Solver struct {
	sys  *System
	cfg  Config
	plan *dist.Plan
	inv  []int

	// bufs recycles the permuted-RHS and permuted-solution panels between
	// solves so repeated solves do not reallocate them.
	bufs sync.Pool
}

// solveBuffers holds one solve's rank-private permutation panels. fresh
// marks a pair straight from the pool's New — a pool miss for the metrics.
type solveBuffers struct {
	bp, xp *sparse.Panel
	fresh  bool
}

// ValidateConfig checks that cfg is a runnable algorithm × layout ×
// machine combination for sys, without building the distribution plan.
// NewSolver calls it first, and the autotuner's search-space generator
// filters candidates through it, so the compatibility rules live in one
// place.
func ValidateConfig(sys *System, cfg Config) error {
	if cfg.Machine == nil {
		return fmt.Errorf("core: Config.Machine is required")
	}
	if err := cfg.Layout.Validate(); err != nil {
		return err
	}
	if max := sys.Tree.NumLeaves(); cfg.Layout.Pz > max {
		return fmt.Errorf("core: Pz=%d exceeds the separator tree's capacity 2^%d (refactorize with a larger FactorOptions.TreeDepth, which n=%d caps at ⌈log2 n⌉)",
			cfg.Layout.Pz, sys.Tree.Depth, sys.A.N)
	}
	switch cfg.Algorithm {
	case trsv.Proposed3D, trsv.Baseline3D, trsv.Proposed3DNaiveAR:
		// CPU algorithms run under every machine model.
	case trsv.GPUSingle:
		if cfg.Machine.GPU == nil {
			return fmt.Errorf("core: algorithm %v needs a GPU machine model, %s is CPU-only", cfg.Algorithm, cfg.Machine.Name)
		}
		if cfg.Layout.Px != 1 || cfg.Layout.Py != 1 {
			return fmt.Errorf("core: algorithm %v requires Px=Py=1 (Alg. 4 collapses each grid to one GPU), got %dx%d",
				cfg.Algorithm, cfg.Layout.Px, cfg.Layout.Py)
		}
	case trsv.GPUMulti:
		if cfg.Machine.GPU == nil {
			return fmt.Errorf("core: algorithm %v needs a GPU machine model, %s is CPU-only", cfg.Algorithm, cfg.Machine.Name)
		}
		if cfg.Layout.Py != 1 {
			return fmt.Errorf("core: algorithm %v requires Py=1 (the Alg. 5 model covers Py=1 layouts only), got Py=%d",
				cfg.Algorithm, cfg.Layout.Py)
		}
	default:
		return fmt.Errorf("core: unknown algorithm %v", cfg.Algorithm)
	}
	if cfg.Staleness < 0 {
		return fmt.Errorf("core: Config.Staleness must be non-negative, got %d", cfg.Staleness)
	}
	if cfg.RefineTol < 0 {
		return fmt.Errorf("core: Config.RefineTol must be non-negative, got %g", cfg.RefineTol)
	}
	if cfg.RefineMax < 0 {
		return fmt.Errorf("core: Config.RefineMax must be non-negative, got %d", cfg.RefineMax)
	}
	if cfg.elastic() && cfg.Backend != nil {
		if _, ok := cfg.Backend.(trsv.Configurable); !ok {
			return fmt.Errorf("core: the elastic solve requires the sim or pool backend, not %T", cfg.Backend)
		}
	}
	return nil
}

// NewSolver validates the configuration and builds the distribution plan.
func NewSolver(sys *System, cfg Config) (*Solver, error) {
	if err := ValidateConfig(sys, cfg); err != nil {
		return nil, err
	}
	if cfg.Backend == nil {
		cfg.Backend = trsv.SimBackend{}
	}
	plan, err := dist.New(sys.SN, sys.Tree, cfg.Layout, cfg.Trees)
	if err != nil {
		return nil, err
	}
	if cfg.Algorithm == trsv.Baseline3D {
		if err := plan.BuildBaseline(); err != nil {
			return nil, err
		}
	}
	// Build (and cache on the plan) the level schedule now, so a
	// schedule-construction failure surfaces at solver construction rather
	// than on the first solve.
	if _, err := sched.Of(plan); err != nil {
		return nil, err
	}
	s := &Solver{sys: sys, cfg: cfg, plan: plan, inv: sparse.InversePerm(sys.Perm)}
	s.bufs.New = func() any { return &solveBuffers{fresh: true} }
	return s, nil
}

// Plan exposes the distribution plan (read-only) for experiment harnesses.
func (s *Solver) Plan() *dist.Plan { return s.plan }

// Report summarizes one solve.
type Report struct {
	// Time is the solve makespan: virtual seconds under the simulator,
	// wall-clock seconds under the goroutine pool. Under elastic mode it
	// is the total across the initial solve and every refinement pass,
	// so it compares directly against a strict solve of the same system.
	Time float64
	// MeanFP, MeanXY, MeanZ are per-rank means of the breakdown
	// categories (the paper's Figs. 5–6), from the initial solve.
	MeanFP, MeanXY, MeanZ float64
	// LSpan, USpan, ZSpan are per-rank phase durations (Figs. 7–10),
	// from the initial solve.
	LSpan, USpan, ZSpan []float64
	// RefinePasses is the number of iterative-refinement passes an
	// elastic solve ran after the initial solve; 0 under strict mode or
	// when the elastic solution already met RefineTol.
	RefinePasses int
	// RefineTime is the modeled/wall seconds the refinement passes alone
	// took (already included in Time); 0 when no pass ran.
	RefineTime float64
	// StaleSupernodes counts supernode solves (across ranks, sweeps, and
	// refinement passes) that consumed stale or missing inputs because a
	// staleness deadline forced their dependencies closed; 0 under
	// strict mode and on healthy elastic runs.
	StaleSupernodes int
	// ForcedTicks counts staleness-deadline ticks that fired with their
	// phase still open and forced it closed; 0 under strict mode.
	ForcedTicks int
	// Residual is the verified ‖b − A·x‖∞ of the returned solution when
	// the solve ran elastically (the refinement loop computes it); NaN
	// under strict mode, where the solver does not verify.
	Residual float64
	// Raw gives access to all per-rank clocks and timers of the initial
	// solve.
	Raw *runtime.Result
}

// Solve computes x with A·x = b, where b and x are in the original (
// unpermuted) row ordering. b may have multiple columns (nrhs > 1).
//
// Solve never lets a failing solve take the process down: handler panics,
// stalls, injected faults, and non-finite numbers all come back as typed
// fault.* errors (fault.IsFault distinguishes them from usage errors such
// as a wrong-shaped RHS). A non-finite RHS is rejected up front and a
// non-finite solution on exit is reported as a fault.NumericalError naming
// the first offending entry. After any error the Solver remains valid: the
// pooled per-solve state is reclaimed and the next Solve starts clean.
//
// Solve is safe to call concurrently from multiple goroutines: every solve
// draws its own buffers and execution state from pools, and the shared
// plan is read-only.
func (s *Solver) Solve(b *sparse.Panel) (*sparse.Panel, *Report, error) {
	return s.solveOn(b, s.cfg.Backend)
}

// SolveSpec bundles the per-call overrides of one solve against a shared
// Solver: an optional fault plan and optional per-solve event tracing. The
// zero value is a plain Solve — SolveWith then uses the configured backend
// as-is, copying nothing, so serving traffic pays no overhead when neither
// override is in play (the alloc-neutrality benchmark pins this).
type SolveSpec struct {
	// Faults injects a fault plan (see fault.Plan) into this solve only,
	// replacing any plan the configured backend carries, so a chaos
	// harness or a serving path can poison exactly one request against a
	// shared Solver.
	Faults *fault.Plan
	// Trace arms per-rank event tracing for this solve only:
	// Report.Raw.Trace is populated as if the backend's Options.Trace were
	// set while the Solver's own backend stays untraced. The runtime
	// allocates message IDs independently of the DES event order, so
	// arming a trace does not perturb virtual time — a traced and an
	// untraced solve of the same system return bit-identical clocks.
	Trace bool
	// TraceCap bounds retained events per rank when Trace is set (0 keeps
	// the backend's own cap, whose 0 means runtime.DefaultTraceCap).
	TraceCap int
}

// SolveWith is Solve with per-call overrides (see SolveSpec). A non-zero
// spec requires the built-in sim or pool backend; custom backends are
// rejected because core cannot know how to thread options into them.
func (s *Solver) SolveWith(b *sparse.Panel, spec SolveSpec) (*sparse.Panel, *Report, error) {
	back, err := s.specBackend(spec)
	if err != nil {
		return nil, nil, err
	}
	return s.solveOn(b, back)
}

// specBackend derives the backend one SolveWith call runs on: the
// configured backend itself for a zero spec, a value copy carrying the
// overrides otherwise.
func (s *Solver) specBackend(spec SolveSpec) (trsv.Backend, error) {
	if spec.Faults == nil && !spec.Trace {
		return s.cfg.Backend, nil
	}
	cb, ok := s.cfg.Backend.(trsv.Configurable)
	if !ok {
		return nil, fmt.Errorf("core: per-solve faults and tracing require the sim or pool backend, not %T", s.cfg.Backend)
	}
	return cb.WithOptions(func(o *runtime.Options) {
		if spec.Faults != nil {
			o.Faults = spec.Faults
		}
		if spec.Trace {
			o.Trace = true
			if spec.TraceCap > 0 {
				o.TraceCap = spec.TraceCap
			}
		}
	}), nil
}

func (s *Solver) solveOn(b *sparse.Panel, back trsv.Backend) (*sparse.Panel, *Report, error) {
	if b.Rows != s.sys.A.N {
		return nil, nil, fmt.Errorf("core: rhs has %d rows, matrix has %d", b.Rows, s.sys.A.N)
	}
	if row, col, v, ok := b.FindNonFinite(); ok {
		return nil, nil, &fault.NumericalError{
			Stage: "rhs", Row: row, Col: col, Value: v, Sn: -1, Rank: -1,
		}
	}
	sb := s.bufs.Get().(*solveBuffers)
	switch {
	case sb.fresh:
		mBufPool.With("miss").Inc()
		sb.fresh = false
	case sb.bp.Rows != b.Rows || sb.bp.Cols != b.Cols:
		mBufPool.With("resize").Inc()
	default:
		mBufPool.With("hit").Inc()
	}
	if sb.bp == nil || sb.bp.Rows != b.Rows || sb.bp.Cols != b.Cols {
		sb.bp = sparse.NewPanel(b.Rows, b.Cols)
		sb.xp = sparse.NewPanel(b.Rows, b.Cols)
	}
	b.PermuteRowsInto(s.sys.Perm, sb.bp)
	opts := trsv.SolveOpts{Staleness: s.cfg.Staleness}
	var stats trsv.ElasticStats
	if s.cfg.elastic() {
		opts.Elastic = &stats
	}
	res, err := trsv.Solve(s.plan, s.cfg.Machine, s.cfg.Algorithm, back, sb.bp, sb.xp, opts)
	if err != nil {
		s.bufs.Put(sb)
		// A traced solve that died with a typed fault still yields its
		// partial runtime result; hand it back as a Raw-only Report so a
		// flight recorder can keep the events leading up to the failure.
		// Callers keep the err-first convention — every other Report field
		// is unset.
		if res != nil {
			return nil, &Report{Residual: math.NaN(), Raw: res}, err
		}
		return nil, nil, err
	}
	if nerr := s.checkFinite(sb.xp); nerr != nil {
		s.bufs.Put(sb)
		return nil, nil, nerr
	}
	x := sb.xp.PermuteRows(s.inv)
	rep := &Report{
		Time:     res.MaxClock(),
		MeanFP:   res.MeanCat(runtime.CatFP),
		MeanXY:   res.MeanCat(runtime.CatXY),
		MeanZ:    res.MeanCat(runtime.CatZ),
		Residual: math.NaN(),
		Raw:      res,
	}
	rep.LSpan, rep.ZSpan, rep.USpan = phaseSpans(res)
	rep.StaleSupernodes = stats.StaleSupernodes
	rep.ForcedTicks = stats.ForcedTicks
	if s.cfg.elastic() {
		if err := s.refine(b, x, sb, back, opts, rep); err != nil {
			s.bufs.Put(sb)
			return nil, nil, err
		}
	}
	s.bufs.Put(sb)
	mSolveSeconds.With(s.cfg.Algorithm.String(), backendName(s.cfg.Backend),
		s.cfg.Machine.Name, s.sys.Fingerprint()).Observe(rep.Time)
	return x, rep, nil
}

// checkFinite scans a permuted-ordering solution panel for NaN/Inf and, on a
// hit, attributes the bad entry to the supernode whose diagonal solve
// produced it and the in-grid rank that ran that solve.
func (s *Solver) checkFinite(xp *sparse.Panel) error {
	rp, col, v, ok := xp.FindNonFinite()
	if !ok {
		return nil
	}
	k := sort.SearchInts(s.sys.SN.SnBegin, rp+1) - 1
	return &fault.NumericalError{
		Stage: "solution", Row: s.inv[rp], Col: col, Value: v,
		Sn: k, Rank: s.plan.DiagRank2D(k),
	}
}

// refine verifies and, if needed, iteratively refines an elastic solution in
// place: it computes the true residual r = b − A·x in the original ordering
// and, while r exceeds RefineTol, re-solves the system with r as the
// right-hand side (still elastically, so a straggler cannot re-inflate the
// pass) and applies the correction, up to RefineMax passes. Convergence is
// guaranteed, not just hoped for: the error a forced pass re-injects is
// proportional to its right-hand side and propagates only through the
// forced (strictly sub-diagonal) couplings, so the per-pass error operator
// is nilpotent — each pass contracts the residual geometrically (measured
// ~0.6× under heavy forcing) and terminates exactly within the stale
// subgraph's depth. On success rep carries the pass count, the accumulated
// stale/forced tallies, the verified residual, and the total modeled time;
// on failure the returned error is a typed *fault.NumericalError with Stage
// "refinement", preserving the verified-solution-or-typed-fault contract.
func (s *Solver) refine(b, x *sparse.Panel, sb *solveBuffers, back trsv.Backend, opts trsv.SolveOpts, rep *Report) error {
	tol, maxPasses := s.cfg.refineTol(), s.cfg.refineMax()
	r := sparse.NewPanel(b.Rows, b.Cols)
	rinf := sparse.ResidualInto(s.sys.A, x, b, r)
	passes := 0
	for rinf > tol && passes < maxPasses && !math.IsNaN(rinf) {
		passes++
		var stats trsv.ElasticStats
		opts.Elastic = &stats
		r.PermuteRowsInto(s.sys.Perm, sb.bp)
		res, err := trsv.Solve(s.plan, s.cfg.Machine, s.cfg.Algorithm, back, sb.bp, sb.xp, opts)
		if err != nil {
			return err
		}
		if nerr := s.checkFinite(sb.xp); nerr != nil {
			return nerr
		}
		rep.Time += res.MaxClock()
		rep.RefineTime += res.MaxClock()
		rep.StaleSupernodes += stats.StaleSupernodes
		rep.ForcedTicks += stats.ForcedTicks
		d := sb.xp.PermuteRows(s.inv)
		x.AddFrom(d)
		rinf = sparse.ResidualInto(s.sys.A, x, b, r)
	}
	rep.RefinePasses = passes
	rep.Residual = rinf
	labels := []string{s.cfg.Algorithm.String(), s.cfg.Machine.Name, s.sys.Fingerprint()}
	mRefinePasses.With(labels...).Add(float64(passes))
	mRefinedResidual.With(labels...).Set(rinf)
	if !(rinf <= tol) { // NaN also fails
		return &fault.NumericalError{
			Stage: "refinement", Residual: rinf, Tol: tol, Passes: passes,
			Row: -1, Sn: -1, Rank: -1,
		}
	}
	return nil
}

// phaseSpans converts the per-rank phase marks into durations. It mirrors
// runtime.Result.MarkSpan semantics: a rank missing a mark (a grid that
// never reaches a phase) or with out-of-order marks contributes NaN — the
// span does not exist on that rank, and aggregators must skip it rather
// than dilute means with fake zeros.
func phaseSpans(res *runtime.Result) (l, z, u []float64) {
	l = make([]float64, len(res.Timers))
	for i := range res.Timers {
		l[i] = math.NaN()
		if marks := res.Timers[i].Marks; marks != nil {
			if v, ok := marks[trsv.MarkLDone]; ok {
				l[i] = v
			}
		}
	}
	z = res.MarkSpan(trsv.MarkLDone, trsv.MarkZDone)
	u = res.MarkSpan(trsv.MarkZDone, trsv.MarkUDone)
	return l, z, u
}

// BatchError reports which panels of a SolveBatch failed. Errs is indexed
// like the input batch: Errs[i] is nil exactly when panel i solved
// successfully. It unwraps to the per-panel errors, so errors.As reaches
// the underlying fault.* types.
type BatchError struct {
	Errs []error
}

// Failed returns the number of failed panels.
func (e *BatchError) Failed() int {
	n := 0
	for _, err := range e.Errs {
		if err != nil {
			n++
		}
	}
	return n
}

func (e *BatchError) Error() string {
	var first error
	for _, err := range e.Errs {
		if err != nil {
			first = err
			break
		}
	}
	return fmt.Sprintf("core: %d of %d batch panels failed; first: %v", e.Failed(), len(e.Errs), first)
}

// Unwrap exposes the non-nil per-panel errors to errors.Is / errors.As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, 0, len(e.Errs))
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// SolveBatch solves one independent system per panel in bs, running the
// solves concurrently (each on its own backend run), and returns the
// solutions and reports in matching order.
//
// Failures are isolated per panel: a panel whose solve fails gets a nil
// xs[i] (and a nil reps[i] — unless the solve was traced and died with a
// typed fault, which leaves a Raw-only report carrying the salvaged
// partial trace) while the other panels complete normally. When any
// panel failed, the returned error is a *BatchError whose Errs slice maps
// each panel to its error (nil for successes), so callers can retry or
// report exactly the failed panels.
func (s *Solver) SolveBatch(bs []*sparse.Panel) ([]*sparse.Panel, []*Report, error) {
	return s.SolveBatchWith(bs, nil)
}

// SolveBatchWith is SolveBatch with an optional per-panel SolveSpec: panel
// i runs under specs[i] (zero entries override nothing), so one flush can
// mix plain panels, poisoned panels, and panels traced on behalf of a
// specific request, and the BatchError fan-out isolates the failures — the
// property the serving coalescer and the chaos tests rely on. specs may be
// nil (no overrides anywhere) or must match bs in length.
func (s *Solver) SolveBatchWith(bs []*sparse.Panel, specs []SolveSpec) ([]*sparse.Panel, []*Report, error) {
	if specs != nil && len(specs) != len(bs) {
		return nil, nil, fmt.Errorf("core: %d solve specs for %d panels", len(specs), len(bs))
	}
	xs := make([]*sparse.Panel, len(bs))
	reps := make([]*Report, len(bs))
	errs := make([]error, len(bs))
	failed := false
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b *sparse.Panel) {
			defer wg.Done()
			var spec SolveSpec
			if specs != nil {
				spec = specs[i]
			}
			xs[i], reps[i], errs[i] = s.SolveWith(b, spec)
		}(i, b)
	}
	wg.Wait()
	bad := 0
	for _, err := range errs {
		if err != nil {
			bad++
		}
	}
	failed = bad > 0
	mBatchPanels.With("ok").Add(float64(len(bs) - bad))
	mBatchPanels.With("error").Add(float64(bad))
	if failed {
		return xs, reps, &BatchError{Errs: errs}
	}
	return xs, reps, nil
}

// Residual returns ‖A·x − b‖∞ in the original ordering. The value is also
// exported as a gauge, so a scrape of a serving process shows the accuracy
// of its most recent checked solve.
func (s *Solver) Residual(x, b *sparse.Panel) float64 {
	r := sparse.ResidualInf(s.sys.A, x, b)
	mResidual.With(s.cfg.Algorithm.String(), s.cfg.Machine.Name, s.sys.Fingerprint()).Set(r)
	return r
}

// Package trsv implements the distributed sparse triangular solve
// algorithms of the paper on top of the message runtime:
//
//   - the proposed 3D SpTRSV (Alg. 1): one 2D L-solve over the whole
//     leaf-to-root path per grid, one inter-grid sparse allreduce (Alg. 2),
//     one 2D U-solve — with flat or binary communication trees (Alg. 3);
//   - the baseline 3D SpTRSV (Sao et al., ICS '19): level-by-level node
//     processing with O(log Pz) inter-grid exchanges and per-node-group
//     flat trees;
//   - the GPU execution model of the NVSHMEM multi-GPU kernels (Alg. 5);
//     the single-GPU-per-grid kernels (Alg. 4) are the same handler on a
//     one-rank grid.
//
// With Pz=1 the proposed algorithm reduces to the communication-optimized
// 2D solver of Liu et al. (CSC '18) and the baseline reduces to the classic
// 2D solver — the paper's two 2D reference points.
//
// The package is split into a plan layer and an execution layer. The plan
// layer (dist.Plan plus the per-rank geometry cached in rankCore) is
// immutable once a solver is built, so any number of solves may run against
// it concurrently. The execution layer is the per-solve mutable state —
// dependency counters, partial-sum panels, ready queues, deferred
// messages — grouped in solveState and recycled through the rank's
// schedule pool so that repeated solves reach a steady state with minimal
// allocation. Every solve runs on the plan's level/DAG schedule
// (internal/sched): dependency counters are slot-indexed copies of its
// templates, working panels come from an arena it sizes, and ready queues
// drain as level sweeps.
package trsv

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"sptrsv/internal/ctree"
	"sptrsv/internal/dist"
	"sptrsv/internal/fault"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sched"
	"sptrsv/internal/snode"
	"sptrsv/internal/sparse"
)

// Message tags. Allreduce and Z-exchange tags carry the step in the payload.
const (
	tagYBcast      = iota + 1 // L-phase: y(K) down a broadcast tree
	tagLReduce                // L-phase: partial lsum(K) up a reduction tree
	tagARReduce               // sparse allreduce: reduce step (Alg. 2)
	tagARBcast                // sparse allreduce: broadcast step
	tagXBcast                 // U-phase: x(K) down a broadcast tree
	tagUReduce                // U-phase: partial usum(K) up a reduction tree
	tagZGatherL               // baseline: inter-grid lsum merge
	tagZBcastU                // baseline: inter-grid x broadcast
	tagGPUEvent               // GPU model: task completion self-event
	tagGPUPut                 // GPU model: one-sided put delivery
	tagNaiveARUp              // naive allreduce ablation: partial y to the owner grid
	tagNaiveARDown            // naive allreduce ablation: complete y back to a replica
	_                         // unused: keeps tagElastic's value (fault drop rules match tags by number)
	tagElastic                // elastic mode: self-addressed staleness-deadline tick
)

// Compute span tags: labels for Ctx.ComputeT spans in the event trace (see
// runtime.Options.Trace). They share the tag namespace with the message
// tags above, so they start well clear of the message range.
const (
	TagDiagSolveL = 0x40 + iota // L-phase diagonal solve y(K)
	TagApplyL                   // L-phase off-diagonal block apply L(I,K)·y(K)
	TagDiagSolveU               // U-phase diagonal solve x(K)
	TagApplyU                   // U-phase off-diagonal block apply U(I,K)·x(K)
	TagARMerge                  // sparse-allreduce partial-sum merge
	TagGPUTaskL                 // GPU model: one L-phase task
	TagGPUTaskU                 // GPU model: one U-phase task
)

// TagName labels message and compute tags for trace export
// (runtime.Result.WriteTraceNamed). Unknown tags yield "" so the exporter
// falls back to numeric labels.
func TagName(tag int) string {
	if n, ok := runtime.LevelSweepTaskCount(tag); ok {
		return fmt.Sprintf("level-sweep(%d)", n)
	}
	switch tag {
	case tagYBcast:
		return "y-bcast"
	case tagLReduce:
		return "l-reduce"
	case tagARReduce:
		return "ar-reduce"
	case tagARBcast:
		return "ar-bcast"
	case tagXBcast:
		return "x-bcast"
	case tagUReduce:
		return "u-reduce"
	case tagZGatherL:
		return "z-gather-l"
	case tagZBcastU:
		return "z-bcast-u"
	case tagGPUEvent:
		return "gpu-event"
	case tagGPUPut:
		return "gpu-put"
	case tagNaiveARUp:
		return "naive-ar-up"
	case tagNaiveARDown:
		return "naive-ar-down"
	case tagElastic:
		return "elastic-tick"
	case TagDiagSolveL:
		return "diag-solve-L"
	case TagApplyL:
		return "apply-L"
	case TagDiagSolveU:
		return "diag-solve-U"
	case TagApplyU:
		return "apply-U"
	case TagARMerge:
		return "ar-merge"
	case TagGPUTaskL:
		return "gpu-task-L"
	case TagGPUTaskU:
		return "gpu-task-U"
	}
	return ""
}

// panelMsg carries one supernode's panel in wire form: a solved subvector
// (y or x) down a broadcast tree, or a partial sum up a reduction tree,
// which the receiver accumulates into its own. The packed values are
// immutable after sending; receivers only read them.
type panelMsg struct {
	K int
	W wirePanel
}

// vecBundle carries packed subvectors for many supernodes at once (the
// bundled buffers of the sparse allreduce and the baseline Z exchanges).
type vecBundle struct {
	Step int
	Ks   []int
	Ws   []wirePanel
}

// bytes models the bundle's wire size: one message envelope plus the full
// per-entry header and payload of every packed panel (see wire.go for the
// byte model).
func (b *vecBundle) bytes() int {
	n := wireEnvBytes
	for i := range b.Ws {
		n += b.Ws[i].wireBytes()
	}
	return n
}

// Backend selects how handlers execute.
type Backend interface {
	Run(n int, net runtime.Network, f func(int) runtime.Handler) (*runtime.Result, error)
}

// SimBackend runs on the discrete-event engine (virtual time). Opts is
// forwarded to the engine (e.g. to enable event tracing).
type SimBackend struct{ Opts runtime.Options }

// Run implements Backend.
func (s SimBackend) Run(n int, net runtime.Network, f func(int) runtime.Handler) (*runtime.Result, error) {
	e := runtime.NewEngine(n, net)
	e.Opts = s.Opts
	return e.Run(f)
}

// PoolBackend runs on real goroutines (wall-clock time). Tracing is enabled
// via Pool.Opts.
type PoolBackend struct{ Pool runtime.Pool }

// Run implements Backend.
func (p PoolBackend) Run(n int, _ runtime.Network, f func(int) runtime.Handler) (*runtime.Result, error) {
	return p.Pool.Run(n, f)
}

// Configurable is implemented by the built-in backends: WithOptions
// returns a copy of the backend with edit applied to its runtime options,
// the receiver untouched. It is the one way a caller adjusts a single run:
// the elastic solve tags its deadline ticks, and core arms tracing or
// layers a fault plan for exactly one solve against a shared Solver.
// Because the backends are values, the copy shares no mutable state with
// the original, and because the runtime allocates message IDs
// independently of the DES event order, a traced solve's virtual clock is
// bit-identical to an untraced one.
type Configurable interface {
	Backend
	WithOptions(edit func(*runtime.Options)) Backend
}

// WithOptions implements Configurable.
func (s SimBackend) WithOptions(edit func(*runtime.Options)) Backend {
	edit(&s.Opts)
	return s
}

// WithOptions implements Configurable.
func (p PoolBackend) WithOptions(edit func(*runtime.Options)) Backend {
	edit(&p.Pool.Opts)
	return p
}

// Marks used for the per-phase load-balance figures.
const (
	MarkLDone = "L_done"
	MarkZDone = "Z_done"
	MarkUDone = "U_done"
)

// packSend packs a panel for a singleton message and returns the wire form
// with its modeled message size (wire.go's one-entry-message model).
func (c *rankCore) packSend(p *sparse.Panel) (wirePanel, int) {
	w := packPanel(p)
	return w, singleBytes(&w)
}

// ---- execution layer ----

// Sweep indices of the per-sweep state: the forward (L) and the backward
// (U) triangular solve, the same indices as the plan's and schedule's
// per-sweep arrays. Every L/U pair of counters, accumulators, queues and
// tags is a [2] array indexed by them.
const (
	sweepL = dist.SweepL
	sweepU = dist.SweepU
)

// Per-sweep message tags, compute span tags and phase-done marks.
var (
	bcastTag  = [2]int{tagYBcast, tagXBcast}
	reduceTag = [2]int{tagLReduce, tagUReduce}
	diagTag   = [2]int{TagDiagSolveL, TagDiagSolveU}
	doneMark  = [2]string{MarkLDone, MarkUDone}
)

// sweepOf returns the sweep of a broadcast- or reduction-tree tag.
func sweepOf(tag int) int {
	if tag == tagXBcast || tag == tagUReduce {
		return sweepU
	}
	return sweepL
}

// sweepPhase is the phase (of the three every algorithm runs) that runs
// sweep sw: the L sweep is phase 0, the U sweep phase 2.
func sweepPhase(sw int) int { return 2 * sw }

// solveState is the per-solve mutable state every algorithm family shares;
// the baseline's stage cursors and the GPU task queue live on their
// handlers, which are built once per solve. States are recycled through
// the rank's schedule pool — the slot tables, queues and arena keep their
// backing arrays between solves, which is what makes repeated solves on
// one Solver nearly allocation-free in steady state. A state is owned by
// exactly one handler for the duration of one solve; release returns it.
// Per-sweep fields are [2] arrays indexed by sweepL and sweepU.
type solveState struct {
	// b is the global RHS panel (read-only during the solve); x the global
	// output panel (each supernode written by exactly one rank).
	b, x *sparse.Panel
	nrhs int

	phase int

	// Per-supernode numeric state by sweep, stored by schedule slot: the
	// partial sums lsum/usum, and the solutions y/x this rank solved or
	// received in an inter-grid bundle.
	sum, sol [2]slotTable

	// Dependency tracking: slot-indexed working copies of each sweep's
	// read-only contribution-count template, receive budgets, and the
	// ready queues of solvable diagonal rows with their dedup guards.
	dpend    [2][]int32
	recvLeft [2]int
	ready    [2][]int
	queued   [2]slotBits

	// Messages that arrived ahead of the phase that can process them.
	deferred []runtime.Msg

	// arena backs the solve's working panels.
	arena arena
	// pre holds diagonal solutions precomputed in parallel by a level
	// sweep on the pool backend, consumed by the serial send pass; wave is
	// the precompute's work description, reused across waves.
	pre  [2]slotTable
	wave waveJob
	// owner is the per-rank schedule pool this state returns to on release
	// (the arena capacity is plan-specific).
	owner *sync.Pool

	// Elastic-mode per-solve state (empty on strict solves). elArmed
	// marks phases whose staleness-deadline tick has been armed; stale
	// records per sweep (by schedule slot) the supernode rows whose solves
	// consumed stale or missing inputs after a forced phase closure.
	elArmed [3]bool
	stale   [2]slotBits

	// rhsBuf is the serial diagonal solve's right-hand-side scratch.
	rhsBuf []float64

	// counts tallies kernel and exchange activity for the metrics registry;
	// summed across ranks and published by Solve.
	counts solveCounts
}

// size readies the slot-indexed tables for a grid's slot numbering. A
// state always serves one rank of one plan (it lives in that rank's
// schedule pool), so after the first solve this only reslices.
func (st *solveState) size(sg *sched.Grid) {
	for sw := range st.sum {
		st.sum[sw].size(sg)
		st.sol[sw].size(sg)
		st.pre[sw].size(sg)
		st.queued[sw].size(len(sg.Sns))
		st.stale[sw].size(len(sg.Sns))
	}
}

// release drops every reference the solve accumulated — panels travel
// between ranks, so a stale reference would pin another solve's memory —
// and returns the state to the pool.
func (st *solveState) release() {
	for sw := range st.sum {
		st.sum[sw].clear()
		st.sol[sw].clear()
		st.pre[sw].clear()
		clear(st.queued[sw])
		st.dpend[sw] = st.dpend[sw][:0]
		st.ready[sw] = st.ready[sw][:0]
		clear(st.stale[sw])
	}
	// Clear the full capacity, not just the length: drainDeferred's
	// compaction reslices the queue, so stale messages (holding Data
	// panels) can sit in the backing array beyond len and would otherwise
	// stay pinned while the state waits in the pool.
	clear(st.deferred[:cap(st.deferred)])
	st.deferred = st.deferred[:0]
	st.wave.reset()
	st.b, st.x = nil, nil
	st.nrhs, st.phase = 0, 0
	st.recvLeft = [2]int{}
	st.elArmed = [3]bool{}
	st.counts = solveCounts{}
	st.owner.Put(st)
}

// slotTable is a per-solve panel table keyed by global supernode and
// stored by the grid's schedule slot (sched.Grid.SlotOf): lookups are one
// index, clearing is one slice clear, and the key walk visits supernodes in
// ascending order because slots ascend with supernode index. Every key must
// be on the grid's path; an off-path key (slot −1) panics on the index.
type slotTable struct {
	slotOf []int32
	sns    []int
	v      []*sparse.Panel
}

// size binds the table to a grid's slot numbering, growing its storage
// only when the grid has more slots than any earlier binding.
func (t *slotTable) size(sg *sched.Grid) {
	t.slotOf, t.sns = sg.SlotOf, sg.Sns
	if cap(t.v) < len(sg.Sns) {
		t.v = make([]*sparse.Panel, len(sg.Sns))
	}
	t.v = t.v[:len(sg.Sns)]
}

// get returns supernode k's panel, nil when absent.
func (t *slotTable) get(k int) *sparse.Panel { return t.v[t.slotOf[k]] }

// set stores p as supernode k's panel; nil removes it.
func (t *slotTable) set(k int, p *sparse.Panel) { t.v[t.slotOf[k]] = p }

// clear removes every panel.
func (t *slotTable) clear() { clear(t.v) }

// each calls f for every stored panel in ascending supernode order.
func (t *slotTable) each(f func(k int, p *sparse.Panel)) {
	for s, p := range t.v {
		if p != nil {
			f(t.sns[s], p)
		}
	}
}

// slotBits is a per-solve set of schedule slots.
type slotBits []uint64

// size readies the set for n slots.
func (b *slotBits) size(n int) {
	w := (n + 63) / 64
	if cap(*b) < w {
		*b = make([]uint64, w)
	}
	*b = (*b)[:w]
}

// has reports whether slot s is in the set.
func (b slotBits) has(s int32) bool { return b[s>>6]&(1<<(s&63)) != 0 }

// set adds slot s to the set.
func (b slotBits) set(s int32) { b[s>>6] |= 1 << (s & 63) }

// enqueue queues a diagonal row for sweep sw's solve exactly once: both
// the phase-start seeding and the dependency counters can discover the same
// ready row.
func (c *rankCore) enqueue(sw, k int) {
	st, s := c.st, c.slot(k)
	if st.queued[sw].has(s) {
		return
	}
	st.queued[sw].set(s)
	st.ready[sw] = append(st.ready[sw], k)
}

// slotCounts refills dst with one counter per schedule slot, read from a
// supernode-keyed template (absent keys count zero).
func slotCounts(dst []int32, sns []int, tmpl map[int]int) []int32 {
	dst = dst[:0]
	for _, k := range sns {
		dst = append(dst, int32(tmpl[k]))
	}
	return dst
}

// arena is the bump allocator behind the solve's working panels
// (y/x subvectors, partial-sum accumulators, allreduce clones). One
// reservation per solve — sized by the schedule's per-rank bound — turns
// the O(supernodes) panel allocations of a solve into two slice reuses.
// Allocations beyond the reservation fall back to the heap, so the bound
// is a performance hint, never a correctness constraint. Panels handed out
// stay valid until the next reserve, matching the solve lifetime of the
// owning state.
type arena struct {
	data   []float64
	panels []sparse.Panel
	nd, np int
	// spills counts this solve's allocations that fell back to the heap.
	spills int
}

// reserve readies the arena for one solve needing at most the given floats
// and panel headers, growing the backing storage only when the demand
// exceeds every earlier solve's.
func (a *arena) reserve(floats, panels int) {
	if cap(a.data) < floats {
		a.data = make([]float64, floats)
	}
	if cap(a.panels) < panels {
		a.panels = make([]sparse.Panel, panels)
	}
	a.nd, a.np, a.spills = 0, 0, 0
}

// alloc returns a zeroed rows×cols panel from the reservation, or from the
// heap once the reservation is exhausted.
func (a *arena) alloc(rows, cols int) *sparse.Panel {
	n := rows * cols
	if a.np >= cap(a.panels) || a.nd+n > cap(a.data) {
		a.spills++
		return sparse.NewPanel(rows, cols)
	}
	p := &a.panels[a.np]
	a.np++
	d := a.data[a.nd : a.nd+n : a.nd+n]
	a.nd += n
	clear(d)
	p.Rows, p.Cols, p.Data = rows, cols, d
	return p
}

// ---- shared rank scaffolding ----

// rankOps is the per-algorithm surface the shared scaffolding drives:
// message admission (phase gating) and processing.
type rankOps interface {
	accepts(m runtime.Msg) bool
	process(ctx *runtime.Ctx, m runtime.Msg)
}

// diagSolver is implemented by the CPU handlers that drive the shared
// ready-queue drain: solve performs one diagonal solve of sweep sw plus
// its follow-up broadcasts and block applications. keepB reports the
// algorithm's RHS rule for supernode K (the proposed algorithm zeroes
// b(K) on grids that do not own K's node; the baseline always keeps it),
// which the parallel level-sweep precompute passes to the shared kernel.
type diagSolver interface {
	solve(ctx *runtime.Ctx, sw, k int)
	keepB(k int) bool
}

// rankCore holds one rank's read-only view of the plan — geometry, block
// lists, communication trees — plus the per-solve execution state and the
// state-machine scaffolding every algorithm shares: message deferral,
// ready-queue draining, and reduction-tree row contributions. The plan side
// is shared across concurrent solves and never written after NewSolver.
type rankCore struct {
	p     *dist.Plan
	model *machine.Model
	gp    *dist.GridPlan

	rank, z, row, col, r2d int

	// Precomputed read-only views shared with the plan.
	colL      map[int][]*snode.LBlock  // my blocks in column K (L)
	colU      map[int][]dist.UBlockRef // my blocks in column K (U): U(I, K)
	myDiagSns []int                    // supernodes whose diagonal rank is me

	// This rank's slice of the plan's level/DAG schedule and the
	// work-stealing chunk size for pool-backend level sweeps.
	sg    *sched.Grid
	sr    *sched.Rank
	chunk int

	// el is the elastic-mode configuration (nil on strict solves): the
	// staleness bound and the lazily computed per-phase deadlines. See
	// elastic.go.
	el *elastic

	// st is this solve's mutable state, acquired in init and handed back to
	// the pool by releaseState once the run has quiesced.
	st *solveState
}

// defaultSweepChunk is the work-stealing chunk size of pool-backend level
// sweeps: sweeps narrower than two chunks run serially.
const defaultSweepChunk = 8

// maxSweepWorkers caps the workers of one rank's level sweep, the handler
// goroutine included — the pool already runs one goroutine per rank, so
// per-rank parallelism only pays on wide levels with idle cores.
const maxSweepWorkers = 4

func (c *rankCore) init(p *dist.Plan, model *machine.Model, rank int, b, x *sparse.Panel, opts SolveOpts) {
	c.p = p
	c.model = model
	c.rank = rank
	g := p.Layout.GridSize()
	c.z = rank / g
	c.r2d = rank % g
	c.row = c.r2d / p.Layout.Py
	c.col = c.r2d % p.Layout.Py
	c.gp = p.Grids[c.z]

	rd := c.gp.Ranks[c.r2d]
	c.colL = rd.ColL
	c.colU = rd.ColU
	c.myDiagSns = rd.MyDiagSns

	s, err := sched.Of(p)
	if err != nil {
		// Unreachable from Solve, which derives the schedule (with
		// an error return) before constructing the factories.
		panic(&fault.ProtocolError{Rank: rank, Phase: "plan",
			Msg: fmt.Sprintf("schedule build failed: %v", err)})
	}
	c.sg = s.Grids[c.z]
	c.sr = c.sg.Ranks[c.r2d]
	c.chunk = opts.levelChunk
	if c.chunk <= 0 {
		c.chunk = defaultSweepChunk
	}
	if opts.Staleness > 0 {
		c.el = &elastic{staleness: opts.Staleness}
	}

	// States live in the schedule's per-rank pool: their arena reservation
	// is plan-specific, so tying their lifetime to the plan keeps the
	// reservation exact across solves.
	st, _ := c.sr.Pool.Get().(*solveState)
	if st == nil {
		st = &solveState{}
	}
	st.owner = &c.sr.Pool
	st.b, st.x, st.nrhs = b, x, b.Cols
	st.arena.reserve(c.sr.ArenaPerRHS*st.nrhs, c.sr.Panels)
	st.size(c.sg)
	c.st = st
}

// slot maps a supernode to its schedule slot; -1 off-path.
func (c *rankCore) slot(k int) int32 { return c.sg.SlotOf[k] }

// bcastKids returns this rank's children in supernode k's broadcast tree
// of sweep sw, precomputed by the schedule (the ranks in tree-walk order,
// without materializing a slice per call); empty off the tree.
func (c *rankCore) bcastKids(sw, k int) []int32 { return c.sr.BcastKids[sw][c.slot(k)] }

// releaseState returns the per-solve state to the pool. Solve calls it
// after the backend run has fully completed, so no handler code can still
// be touching the state.
func (c *rankCore) releaseState() {
	if c.st != nil {
		c.st.release()
		c.st = nil
	}
}

// proposedPhase names the proposed algorithm's phases (shared by the GPU
// variants) for diagnostics.
func proposedPhase(p int) string {
	switch p {
	case 0:
		return "L-solve"
	case 1:
		return "allreduce"
	case 2:
		return "U-solve"
	case 3:
		return "done"
	}
	return fmt.Sprintf("phase-%d", p)
}

// baselinePhase names the baseline algorithm's phases for diagnostics.
func baselinePhase(p int) string {
	switch p {
	case 0:
		return "L-solve"
	case 1:
		return "Z-exchange"
	case 2:
		return "U-solve"
	case 3:
		return "done"
	}
	return fmt.Sprintf("phase-%d", p)
}

// WaitState implements runtime.WaitStater: when a solve stalls or
// deadlocks, the diagnostics embed this snapshot of the rank's progress —
// phase, outstanding receive counters, queued work — so the error says what
// the algorithm was waiting for, not just that it waited.
func (c *rankCore) WaitState() string {
	st := c.st
	if st == nil {
		return "state released"
	}
	return fmt.Sprintf("phase=%d recvLeft=%v ready=[%d %d] deferred=%d",
		st.phase, st.recvLeft, len(st.ready[sweepL]), len(st.ready[sweepU]), len(st.deferred))
}

// dispatch implements the deferral protocol shared by every handler:
// process the message if the current phase admits it, otherwise buffer it;
// then drain whatever buffered messages the processing unlocked.
//
// Elastic-mode deadline ticks are intercepted before the admission check:
// a live tick (its phase not yet closed) forces the phase with whatever
// inputs are on hand, then re-offers the deferred messages the phase
// transitions unlocked. Stale ticks are dropped (the DES engine already
// filters them via TickLive; the pool delivers all timers).
func (c *rankCore) dispatch(ctx *runtime.Ctx, m runtime.Msg, ops rankOps) {
	if m.Tag == tagElastic {
		ph, _ := m.Data.(int)
		st := c.st
		if c.el != nil && st.phase < 3 && st.phase <= ph {
			st.counts.forcedTicks++
			if f, ok := ops.(elasticForcer); ok {
				f.forceStale(ctx, ph)
				c.drainDeferred(ctx, ops)
			}
		}
		return
	}
	if !ops.accepts(m) {
		c.st.deferred = append(c.st.deferred, m)
		return
	}
	ops.process(ctx, m)
	c.drainDeferred(ctx, ops)
}

// drainDeferred re-offers buffered messages until none is acceptable;
// processing one message can unlock others (e.g. a phase transition).
//
// Each round is a single in-place, order-preserving compaction pass:
// acceptable messages are processed as the scan reaches them, the rest
// slide down to fill the gaps, and the vacated tail is zeroed so no stale
// Msg (whose Data holds panels) lingers in the backing array beyond len.
// A round that processed anything may have unlocked earlier survivors, so
// rounds repeat until one processes nothing — O(rounds·n) instead of the
// restart-from-zero scan's O(n²) per unlocked message.
//
// dispatch is the only appender to st.deferred and process never calls
// back into dispatch, so the slice does not grow mid-pass.
func (c *rankCore) drainDeferred(ctx *runtime.Ctx, ops rankOps) {
	for {
		d := c.st.deferred
		w := 0
		for r := 0; r < len(d); r++ {
			m := d[r]
			if ops.accepts(m) {
				ops.process(ctx, m)
				continue
			}
			d[w] = m
			w++
		}
		progressed := w < len(d)
		clear(d[w:len(d)])
		c.st.deferred = d[:w]
		if !progressed {
			return
		}
	}
}

// drainReady solves sweep sw's queued diagonal rows; solving one row can
// locally unlock further rows, so it loops until the queue is quiet.
//
// The queue is consumed in level sweeps: everything ready now is one wave
// (a level of the dynamic wavefront — the static schedule's levels refined
// by actual message arrivals), tasks a wave unlocks form the next. Tasks
// run in FIFO queue order — a wave is a grouping of that order, not a
// reordering — which is what keeps send order, DES clocks, and floating-
// point accumulation deterministic. Each wave is recorded as one trace
// span (Ctx.Span, no time charge; untraced runs skip the clock reads that
// would feed it), and on the pool backend a wide wave's independent
// diagonal solves are precomputed on worker goroutines before the serial
// send pass.
func (c *rankCore) drainReady(ctx *runtime.Ctx, s diagSolver, sw int) {
	st := c.st
	q := &st.ready[sw]
	traced := ctx.Traced()
	for len(*q) > 0 {
		n := len(*q)
		var start float64
		if traced {
			start = ctx.Now()
		}
		c.precomputeWave(ctx, s, sw, (*q)[:n])
		for i := 0; i < n; i++ {
			s.solve(ctx, sw, (*q)[i])
		}
		// Slide the next wave down instead of reslicing from the front, so
		// the queue keeps its backing array across waves and solves.
		*q = append((*q)[:0], (*q)[n:]...)
		st.counts.sweeps++
		st.counts.sweepTasks += n
		if traced {
			ctx.Span(runtime.LevelSweepTag(n), start, ctx.Now()-start)
		}
	}
}

// precomputeWave runs a wave's diagonal solves on worker goroutines,
// chunked work-stealing style (workers grab fixed-size chunks off a shared
// counter). Pool backend only: the DES backend's clock charges are serial
// by construction, and there the sweep is pure bookkeeping anyway. Safe
// because every supernode in the wave has all its contributions in (its
// pending counter hit zero), the inputs (b, diagonal inverses, accumulated
// partial sums) are no longer written, and each task writes only its own
// result slot. The workers call the serial path's kernel, diagSolve, so
// the solution stays bit-exact regardless of worker interleaving. The
// serial pass that follows consumes the results in wave order, so message
// order is untouched.
func (c *rankCore) precomputeWave(ctx *runtime.Ctx, s diagSolver, sw int, wave []int) {
	chunk := c.chunk
	if ctx.Virtual() || len(wave) < 2*chunk || goruntime.GOMAXPROCS(0) < 2 {
		return
	}
	// Destinations come from the arena, allocated here on the handler
	// goroutine (bump allocation is single-threaded); each is the panel
	// the serial diagonal solve would otherwise have taken.
	j := &c.st.wave
	j.s, j.keys, j.sw = s, wave, sw
	j.out = j.out[:0]
	for _, k := range wave {
		j.out = append(j.out, c.newPanel(c.snWidth(k)))
	}
	j.chunks = (len(wave) + chunk - 1) / chunk
	j.next.Store(0)
	// The handler goroutine is one of the workers: it would only wait
	// otherwise.
	workers := min(goruntime.GOMAXPROCS(0), j.chunks, maxSweepWorkers)
	j.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go c.waveWorker(&j.buf[w], &j.wg)
	}
	c.waveWorker(&j.buf[0], nil)
	j.wg.Wait()
	for i, k := range wave {
		if j.out[i] != nil {
			c.st.pre[sw].set(k, j.out[i])
		}
	}
}

// waveJob describes the wave being precomputed to its workers. It lives on
// the solve state, so launching a wave allocates nothing beyond the
// goroutines themselves.
type waveJob struct {
	s      diagSolver
	keys   []int
	out    []*sparse.Panel // per key: the zeroed destination; nil if unsolvable
	sw     int
	chunks int
	next   atomic.Int32 // next chunk to claim
	wg     sync.WaitGroup
	buf    [maxSweepWorkers][]float64 // per-worker rhs scratch
}

// reset drops the job's references, keeping its storage.
func (j *waveJob) reset() {
	clear(j.out[:cap(j.out)])
	j.out = j.out[:0]
	j.s, j.keys = nil, nil
}

// waveWorker claims chunks of the current wave until none is left, writing
// each task's result into its destination panel; a spawned worker then
// marks wg done. The kernel tallies are left to the consuming solvePanel,
// so counters stay single-writer.
func (c *rankCore) waveWorker(buf *[]float64, wg *sync.WaitGroup) {
	if wg != nil {
		defer wg.Done()
	}
	j := &c.st.wave
	for {
		ci := int(j.next.Add(1)) - 1
		if ci >= j.chunks {
			return
		}
		hi := min((ci+1)*c.chunk, len(j.keys))
		for i := ci * c.chunk; i < hi; i++ {
			k := j.keys[i]
			if !c.diagSolve(j.sw, k, j.s.keepB(k), j.out[i], buf) {
				j.out[i] = nil
			}
		}
	}
}

// solvePanel produces and stores row k's solution in sweep sw, y(K) or
// x(K) (the owning grid also writes x(K) to the output), and returns it
// with the modeled seconds of its diagonal solve: from the wave precompute
// when one is stashed (same kernel, already run), else through the kernel
// now. keep is the L sweep's RHS rule (diagSolver.keepB).
func (c *rankCore) solvePanel(sw, k int, keep bool) (*sparse.Panel, float64) {
	st := c.st
	st.counts.diag[sw]++
	w := c.snWidth(k)
	v := st.pre[sw].get(k)
	if v != nil {
		st.pre[sw].set(k, nil)
	} else {
		v = c.newPanel(w)
		if !c.diagSolve(sw, k, keep, v, &st.rhsBuf) {
			panic(&fault.ProtocolError{Rank: c.rank, Phase: "U-solve",
				Msg: fmt.Sprintf("solving x(%d) without y(%d)", k, k)})
		}
	}
	st.sol[sw].set(k, v)
	if sw == sweepU && c.gp.OwnerGridOfSn(k) == c.z {
		c.writeX(k, v)
	}
	return v, c.model.GemmTime(w, w, st.nrhs)
}

// ---- dependency-counter accessors ----
//
// Counters are flat slot-indexed copies of the templates (filled in each
// algorithm's Init); every counter key is an on-path supernode, so every
// key has a slot. Slots a rank never contributes to read zero.

// decPending decrements row K's outstanding contribution count in sweep
// sw and returns the new value.
func (c *rankCore) decPending(sw, k int) int {
	d := &c.st.dpend[sw][c.slot(k)]
	*d--
	return int(*d)
}

// pendingOf reads row K's outstanding contribution count in sweep sw.
func (c *rankCore) pendingOf(sw, k int) int { return int(c.st.dpend[sw][c.slot(k)]) }

// zeroPending clears row K's outstanding contribution count in sweep sw.
func (c *rankCore) zeroPending(sw, k int) { c.st.dpend[sw][c.slot(k)] = 0 }

// contribution records one partial-sum contribution for row K of sweep sw
// (a local block product or a reduction-tree child message) under the
// given reduction tree and fires the follow-up when the row completes:
// enqueue the diagonal solve at the tree root, forward the partial sum to
// the parent elsewhere.
func (c *rankCore) contribution(ctx *runtime.Ctx, sw, k int, tree *ctree.Tree) {
	st := c.st
	if c.decPending(sw, k) != 0 {
		return
	}
	if tree.Root() == c.r2d {
		c.enqueue(sw, k)
		return
	}
	w, bytes := c.packSend(c.getSum(sw, k))
	ctx.Send(runtime.Msg{
		Dst: c.p.GlobalRank(c.z, tree.Parent(c.r2d)), Tag: reduceTag[sw], Cat: runtime.CatXY,
		Data: &panelMsg{K: k, W: w}, Bytes: bytes,
	})
	st.sum[sw].set(k, nil) // ownership transferred
}

// ---- shared numeric kernels ----

// snWidth returns the width of supernode k.
func (c *rankCore) snWidth(k int) int { return c.p.M.SnWidth(k) }

// newPanel returns a zeroed rows×nrhs working panel from the solve's
// arena reservation. The panel outlives the handler step (it may be stored
// in a slot table or sent to a peer) and stays valid until the
// owning state is released.
func (c *rankCore) newPanel(rows int) *sparse.Panel {
	return c.st.arena.alloc(rows, c.st.nrhs)
}

// clonePanel copies a panel into arena storage — the allreduce helpers use
// it where they must detach a subvector from a panel other ranks may still
// read.
func (c *rankCore) clonePanel(p *sparse.Panel) *sparse.Panel {
	out := c.st.arena.alloc(p.Rows, p.Cols)
	copy(out.Data, p.Data)
	return out
}

// getSum returns (allocating if needed) the partial-sum accumulator of
// row k in sweep sw: lsum(k) or usum(k).
func (c *rankCore) getSum(sw, k int) *sparse.Panel {
	s := c.st.sum[sw].get(k)
	if s == nil {
		s = c.newPanel(c.snWidth(k))
		c.st.sum[sw].set(k, s)
	}
	return s
}

// applyLBlock accumulates L(I,K)·y(K) into lsum(I) through the fused
// scatter kernel, returning the modeled FP seconds of the operation.
//
// The two sweeps' blocks differ in type (an L block's rows scatter into
// lsum(I), a U block's columns gather from x(K)), so handlers walk a
// column with one typed loop per sweep. A shared block iterator — by
// closure, by a block view with per-block dispatch, or by a per-block
// helper call — cost 4–10% of pool-1rhs solve latency: the blocks are
// small and a solve applies thousands of them.
func (c *rankCore) applyLBlock(blk *snode.LBlock, k int, yk *sparse.Panel) float64 {
	c.st.counts.blocks[sweepL]++
	sparse.GemmScatter(blk.Val, yk, blk.Rows, c.p.M.SnBegin[blk.I], c.getSum(sweepL, blk.I), false)
	return c.model.GemmTime(len(blk.Rows), c.snWidth(k), c.st.nrhs)
}

// applyUBlock accumulates U(I,K)·x(K) into usum(I), gathering the block's
// columns from x(K) in place, and returns the modeled FP seconds.
func (c *rankCore) applyUBlock(ref dist.UBlockRef, k int, xk *sparse.Panel) float64 {
	c.st.counts.blocks[sweepU]++
	blk := ref.Blk
	sparse.GemmGather(blk.Val, xk, blk.Cols, c.p.M.SnBegin[k], c.getSum(sweepU, ref.I), false)
	return c.model.GemmTime(blk.Val.Rows, len(blk.Cols), c.st.nrhs)
}

// diagSolve is the diagonal-solve kernel of both sweeps, shared by the
// serial path and the wave workers: it writes inv(L(K,K))·(rhs − lsum(K))
// into the zeroed panel dst in the L sweep, where rhs is b(K) when keep
// holds and zero otherwise (the proposed algorithm's zeroing rule, Alg. 1
// lines 4–10), and inv(U(K,K))·(y(K) − usum(K)) in the U sweep. buf is the
// caller's right-hand-side scratch. It reports false, writing nothing,
// when the U sweep finds no y(K).
func (c *rankCore) diagSolve(sw, k int, keep bool, dst *sparse.Panel, buf *[]float64) bool {
	st := c.st
	w, n := c.snWidth(k), st.nrhs
	if cap(*buf) < w*n {
		*buf = make([]float64, w*n)
	}
	rhs := sparse.Panel{Rows: w, Cols: n, Data: (*buf)[:w*n]}
	switch {
	case sw == sweepU:
		yk := st.sol[sweepL].get(k)
		if yk == nil {
			return false
		}
		copy(rhs.Data, yk.Data)
	case keep:
		lo := c.p.M.SnBegin[k]
		for j := 0; j < n; j++ {
			copy(rhs.Col(j), st.b.Col(j)[lo:lo+w])
		}
	default:
		clear(rhs.Data)
	}
	if s := st.sum[sw].get(k); s != nil {
		for i, v := range s.Data {
			rhs.Data[i] -= v
		}
	}
	inv := c.p.M.LDiagInv[k]
	if sw == sweepU {
		inv = c.p.M.UDiagInv[k]
	}
	sparse.GemmAdd(inv, &rhs, dst)
	return true
}

// writeX stores x(K) into the global output panel.
func (c *rankCore) writeX(k int, xk *sparse.Panel) {
	lo := c.p.M.SnBegin[k]
	for j := 0; j < c.st.nrhs; j++ {
		copy(c.st.x.Col(j)[lo:lo+xk.Rows], xk.Col(j))
	}
}

// trailingZeros returns the number of trailing zero bits of z, capped at
// cap (grid 0 behaves as having cap trailing zeros).
func trailingZeros(z, cap int) int {
	if z == 0 {
		return cap
	}
	s := 0
	for z&1 == 0 {
		s++
		z >>= 1
	}
	return s
}

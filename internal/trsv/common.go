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
// (internal/sched): dependency counters are copies of the plan's
// slot-indexed templates, working panels come from an arena the schedule
// sizes, and ready queues drain as level sweeps.
package trsv

import (
	"fmt"
	"sync"

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

// panelMsg carries one supernode's panel: a solved subvector (y or x)
// down a broadcast tree or as a GPU put, or a partial sum up a reduction
// tree, which the receiver accumulates into its own. Records come from the
// sender's per-solve storage (solveState.msgs); one record is shared by
// every child of a broadcast. Record and panel are immutable after
// sending; receivers only read them.
type panelMsg struct {
	K int
	// G is a baseline broadcast's row-node group, Sw a GPU put's sweep.
	G, Sw int
	P     *sparse.Panel
}

// vecBundle carries subvectors for many supernodes at once (the bundled
// buffers of the sparse allreduce and the baseline Z exchanges).
type vecBundle struct {
	Step int
	Ks   []int
	Ps   []*sparse.Panel
}

// bytes models the bundle's wire size: one message envelope plus the
// header and payload of every panel (see wire.go for the byte model).
func (b *vecBundle) bytes() int {
	n := wireEnvBytes
	for _, p := range b.Ps {
		n += panelBytes(p)
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
	applyTag  = [2]int{TagApplyL, TagApplyU}
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
// algorithms, which are built once per solve. States are recycled through
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

	// msgs holds the payload records this rank sends, tasks the GPU
	// model's in-flight task records. Receivers read a record until the
	// run quiesces, so both are reset only on release.
	msgs  slab[panelMsg]
	tasks slab[gpuTask]

	// arena backs the solve's working panels.
	arena arena
	// owner is the per-rank schedule pool this state returns to on release
	// (the arena capacity is plan-specific).
	owner *sync.Pool

	// Elastic-mode per-solve state (empty on strict solves). elArmed
	// marks phases whose staleness-deadline tick has been armed; stale
	// records per sweep (by schedule slot) the supernode rows whose solves
	// consumed stale or missing inputs after a forced phase closure.
	elArmed [3]bool
	stale   [2]slotBits

	// rhsBuf is the diagonal solve's right-hand-side scratch.
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
	st.msgs.reset()
	st.tasks.reset()
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

// slab is per-solve record storage. Records come from chunks that never
// move, so a record's address stays valid until reset, and the chunks
// (each twice the size of the one before) are kept for the next solve:
// a steady-state solve takes its records without allocating.
type slab[T any] struct {
	chunks [][]T
	c, i   int // the next record is chunks[c][i]
}

// slabFirst is the record count of a slab's first chunk.
const slabFirst = 16

// next returns a zeroed record.
func (s *slab[T]) next() *T {
	if s.c < len(s.chunks) && s.i == len(s.chunks[s.c]) {
		s.c, s.i = s.c+1, 0
	}
	if s.c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabFirst<<s.c))
	}
	r := &s.chunks[s.c][s.i]
	s.i++
	return r
}

// reset zeroes the records handed out, dropping their panel references,
// and rewinds the slab.
func (s *slab[T]) reset() {
	for c := 0; c < s.c; c++ {
		clear(s.chunks[c])
	}
	if s.c < len(s.chunks) {
		clear(s.chunks[s.c][:s.i])
	}
	s.c, s.i = 0, 0
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
	d := a.data[a.nd : a.nd+n : a.nd+n]
	a.nd += n
	clear(d)
	p := &a.panels[a.np]
	a.np++
	p.Rows, p.Cols, p.Data = rows, cols, d
	return p
}

// ---- shared rank scaffolding ----

// algorithm is the dependency structure of one SpTRSV variant — who
// waits for what and who talks to whom. rankCore is the shell every variant
// shares around it: the runtime.Handler entry points, message deferral,
// elastic deadline ticks and message construction.
type algorithm interface {
	// start seeds the rank's first sweep (the handler's Init).
	start(ctx *runtime.Ctx)
	// gate places message m against the rank's progress: negative when m
	// belongs to progress already passed, so it can never be processed
	// (dead on arrival); zero when it can be processed now; positive when
	// it is early and waits in the deferral queue. Progress — phases,
	// stages, reduction steps — only advances, so a negative answer is
	// permanent. An unknown tag panics with a *fault.ProtocolError.
	gate(m runtime.Msg) int
	// process handles a message whose gate is zero.
	process(ctx *runtime.Ctx, m runtime.Msg)
	// forceStale closes, at an elastic staleness deadline, every phase up
	// to and including phase that is still open, with stale inputs.
	forceStale(ctx *runtime.Ctx, phase int)
}

// diagSolver is implemented by the CPU handlers that drive the shared
// ready-queue drain: solve performs one diagonal solve of sweep sw plus
// its follow-up broadcasts and block applications.
type diagSolver interface {
	solve(ctx *runtime.Ctx, sw, k int)
}

// rankCore is the one runtime.Handler of the package: a rank's read-only
// view of the plan — geometry, block lists, communication trees — plus the
// per-solve execution state and the scaffolding every algorithm shares:
// message gating and deferral, elastic ticks, message construction,
// ready-queue draining and reduction-tree row contributions. alg supplies
// the dependency structure. The plan side is shared across concurrent
// solves and never written after NewSolver.
type rankCore struct {
	alg algorithm

	p     *dist.Plan
	model *machine.Model
	gp    *dist.GridPlan

	rank, z, row, col, r2d int

	// Precomputed read-only views shared with the plan: the packed block
	// store, my blocks by column slot, and by sweep and slot the rank my
	// partial sums go to in the algorithm's reduction trees (-1 at the
	// root).
	store     *snode.Store
	rd        *dist.RankData
	parent    [2][]int32
	myDiagSns []int // supernodes whose diagonal rank is me

	// This rank's slice of the plan's level/DAG schedule.
	sg *sched.Grid
	sr *sched.Rank

	// virtual is set on the DES backend, the only one that charges modeled
	// compute seconds.
	virtual bool

	// el is the elastic-mode configuration (nil on strict solves): the
	// staleness bound and the lazily computed per-phase deadlines. See
	// elastic.go.
	el *elastic

	// st is this solve's mutable state, acquired in init and handed back to
	// the pool by releaseState once the run has quiesced.
	st *solveState
}

// init binds the shell to its algorithm and one rank of the plan and
// acquires the solve's state; it returns the shell as the rank's handler.
func (c *rankCore) init(alg algorithm, p *dist.Plan, model *machine.Model, rank int, b, x *sparse.Panel, opts SolveOpts) *rankCore {
	c.alg = alg
	c.p = p
	c.model = model
	c.rank = rank
	g := p.Layout.GridSize()
	c.z = rank / g
	c.r2d = rank % g
	c.row = c.r2d / p.Layout.Py
	c.col = c.r2d % p.Layout.Py
	c.gp = p.Grids[c.z]

	c.store = &p.M.Store
	c.rd = c.gp.Ranks[c.r2d]
	c.parent = c.rd.Parent
	c.myDiagSns = c.rd.MyDiagSns

	s, err := sched.Of(p)
	if err != nil {
		// Unreachable from Solve, which derives the schedule (with
		// an error return) before constructing the factories.
		panic(&fault.ProtocolError{Rank: rank, Phase: "plan",
			Msg: fmt.Sprintf("schedule build failed: %v", err)})
	}
	c.sg = s.Grids[c.z]
	c.sr = c.sg.Ranks[c.r2d]
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
	return c
}

// slot maps a supernode to its schedule slot; -1 off-path.
func (c *rankCore) slot(k int) int32 { return c.sg.SlotOf[k] }

// bcastKids returns this rank's children in supernode k's broadcast tree
// of sweep sw, precomputed by the schedule; empty off the tree.
func (c *rankCore) bcastKids(sw, k int) []int32 { return c.sr.BcastKids(sw, c.slot(k)) }

// releaseState returns the per-solve state to the pool. Solve calls it
// after the backend run has fully completed, so no handler code can still
// be touching the state.
func (c *rankCore) releaseState() {
	c.st.release()
	c.st = nil
}

// phaseName names phase p of the three every algorithm runs, for
// diagnostics; exchange names the inter-grid phase ("allreduce" for the
// proposed algorithm and its GPU variants, "Z-exchange" for the baseline).
func phaseName(p int, exchange string) string {
	switch p {
	case 0:
		return "L-solve"
	case 1:
		return exchange
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

// Init implements runtime.Handler: the algorithm seeds its first sweep,
// then the first phase's elastic deadline is armed.
func (c *rankCore) Init(ctx *runtime.Ctx) {
	c.virtual = ctx.Virtual()
	c.alg.start(ctx)
	c.armElastic(ctx)
}

// OnMessage implements runtime.Handler: dispatch the message, then arm
// the deadline of whatever phase it opened.
func (c *rankCore) OnMessage(ctx *runtime.Ctx, m runtime.Msg) {
	c.dispatch(ctx, m)
	c.armElastic(ctx)
}

// Done implements runtime.Handler: every algorithm ends in phase 3.
func (c *rankCore) Done() bool { return c.st.phase == 3 }

// DeadOnArrival implements runtime.DeadLetterer: a message whose gate is
// negative parks forever, so it must not charge wait time.
func (c *rankCore) DeadOnArrival(m runtime.Msg) bool { return c.alg.gate(m) < 0 }

// unexpected is the protocol error of a message no gate knows.
func (c *rankCore) unexpected(m runtime.Msg, phase string) *fault.ProtocolError {
	return &fault.ProtocolError{Rank: c.rank, Tag: m.Tag, Phase: phase,
		Msg: fmt.Sprintf("received unexpected tag %d from rank %d", m.Tag, m.Src)}
}

// dispatch implements the deferral protocol: process the message if its
// gate admits it now, drop it if its gate is negative (it can never be
// processed), otherwise buffer it; then drain whatever buffered messages
// the processing unlocked.
//
// Elastic-mode deadline ticks are intercepted before the gate: a live
// tick (its phase not yet closed) forces the phase with whatever inputs
// are on hand, then re-offers the deferred messages the phase transitions
// unlocked. Stale ticks are dropped (the DES engine already filters them
// via TickLive; the pool delivers all timers).
func (c *rankCore) dispatch(ctx *runtime.Ctx, m runtime.Msg) {
	if m.Tag == tagElastic {
		ph, _ := m.Data.(int)
		st := c.st
		if c.el != nil && st.phase < 3 && st.phase <= ph {
			st.counts.forcedTicks++
			c.alg.forceStale(ctx, ph)
			c.drainDeferred(ctx)
		}
		return
	}
	if g := c.alg.gate(m); g != 0 {
		if g > 0 {
			c.st.deferred = append(c.st.deferred, m)
		}
		return
	}
	c.alg.process(ctx, m)
	c.drainDeferred(ctx)
}

// drainDeferred re-offers buffered messages until none is admitted now;
// processing one message can unlock others (e.g. a phase transition).
// A message whose gate has turned negative is dropped: progress passed it
// and its gate never reopens.
//
// Each round is a single in-place, order-preserving compaction pass:
// admitted messages are processed as the scan reaches them, dead ones are
// dropped, the rest slide down to fill the gaps, and the vacated tail is
// zeroed so no stale Msg (whose Data holds panels) lingers in the backing
// array beyond len.
// A round that processed anything may have unlocked earlier survivors, so
// rounds repeat until one processes nothing — O(rounds·n) instead of the
// restart-from-zero scan's O(n²) per unlocked message.
//
// dispatch is the only appender to st.deferred and process never calls
// back into dispatch, so the slice does not grow mid-pass.
func (c *rankCore) drainDeferred(ctx *runtime.Ctx) {
	for {
		d := c.st.deferred
		w := 0
		for r := 0; r < len(d); r++ {
			m := d[r]
			switch g := c.alg.gate(m); {
			case g == 0:
				c.alg.process(ctx, m)
			case g > 0:
				d[w] = m
				w++
			}
		}
		progressed := w < len(d)
		clear(d[w:len(d)])
		c.st.deferred = d[:w]
		if !progressed {
			return
		}
	}
}

// record wraps supernode k's panel p in a payload record from the solve's
// message storage; it stays valid until the state is released, and every
// receiver of one broadcast reads the same record.
func (c *rankCore) record(k int, p *sparse.Panel) *panelMsg {
	m := c.st.msgs.next()
	m.K, m.P = k, p
	return m
}

// sendXY sends rec one intra-grid tree hop, to the rank at 2D position r2d
// of this rank's grid, charged as a singleton message.
func (c *rankCore) sendXY(ctx *runtime.Ctx, r2d, tag int, rec *panelMsg) {
	ctx.Send(runtime.Msg{Dst: c.p.GlobalRank(c.z, r2d), Tag: tag, Cat: runtime.CatXY,
		Data: rec, Bytes: singleBytes(rec.P)})
}

// sendZ sends bundle b to the rank at this rank's 2D position on grid z.
func (c *rankCore) sendZ(ctx *runtime.Ctx, z, tag int, b *vecBundle) {
	ctx.Send(runtime.Msg{Dst: c.p.GlobalRank(z, c.r2d), Tag: tag, Cat: runtime.CatZ,
		Data: b, Bytes: b.bytes()})
}

// drainReady solves sweep sw's queued diagonal rows; solving one row can
// locally unlock further rows, so it loops until the queue is quiet.
//
// The queue is consumed in level sweeps: everything ready now is one wave
// (a level of the dynamic wavefront — the static schedule's levels refined
// by actual message arrivals), tasks a wave unlocks form the next. Tasks
// run one at a time on the rank's goroutine, in FIFO queue order — a wave
// is a grouping of that order, not a reordering — which is what keeps send
// order, DES clocks, and floating-point accumulation deterministic. Each
// wave is recorded as one trace span (Ctx.Span, no time charge; untraced
// runs skip the clock reads that would feed it).
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

// solvePanel produces and stores row k's solution in sweep sw, y(K) or
// x(K) (the owning grid also writes x(K) to the output), and returns it
// with the modeled seconds of its diagonal solve. keep is the L sweep's
// RHS rule (see diagSolve).
func (c *rankCore) solvePanel(sw, k int, keep bool) (*sparse.Panel, float64) {
	st := c.st
	st.counts.diag[sw]++
	w := c.snWidth(k)
	v := c.newPanel(w)
	if !c.diagSolve(sw, k, keep, v) {
		panic(&fault.ProtocolError{Rank: c.rank, Phase: "U-solve",
			Msg: fmt.Sprintf("solving x(%d) without y(%d)", k, k)})
	}
	st.sol[sw].set(k, v)
	if sw == sweepU && c.gp.OwnerGridOfSn(k) == c.z {
		c.writeX(k, v)
	}
	return v, c.gemmTime(w, w)
}

// ---- dependency-counter accessors ----
//
// Counters are flat slot-indexed copies of the templates (filled in each
// algorithm's start); every counter key is an on-path supernode, so every
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

// contribution records one partial-sum contribution for the row in slot
// s of sweep sw (a local block product or a reduction-tree child message)
// and fires the follow-up when the row completes: enqueue the diagonal
// solve at the reduction tree's root, forward the partial sum to the
// parent elsewhere.
func (c *rankCore) contribution(ctx *runtime.Ctx, sw int, s int32) {
	d := &c.st.dpend[sw][s]
	if *d--; *d != 0 {
		return
	}
	k := c.sg.Sns[s]
	parent := c.parent[sw][s]
	if parent == -1 {
		c.enqueue(sw, k)
		return
	}
	c.sendXY(ctx, int(parent), reduceTag[sw], c.record(k, c.sumAt(sw, s)))
	c.st.sum[sw].v[s] = nil // ownership transferred
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
func (c *rankCore) getSum(sw, k int) *sparse.Panel { return c.sumAt(sw, c.slot(k)) }

// sumAt is getSum by slot.
func (c *rankCore) sumAt(sw int, s int32) *sparse.Panel {
	v := &c.st.sum[sw].v[s]
	if *v == nil {
		*v = c.newPanel(int(c.sg.Width[s]))
	}
	return *v
}

// applyBlock accumulates the product of one of my blocks of column k in
// sweep sw into its row's partial sum: L(I,K)·y(K) scattered into lsum(I),
// or U(I,K)·x(K) gathered in place from x(K) into usum(I). It returns the
// modeled FP seconds of the operation. The block and its row come from the
// packed store and the slot tables by index.
func (c *rankCore) applyBlock(sw int, e dist.Entry, k int, v *sparse.Panel) float64 {
	c.st.counts.blocks[sw]++
	a := &c.store.Panels[e.B]
	idx := c.store.Index(e.B)
	if sw == sweepL {
		sparse.GemmScatter(a, v, idx, c.p.M.SnBegin[c.sg.Sns[e.Slot]], c.sumAt(sw, e.Slot), false)
	} else {
		sparse.GemmGather(a, v, idx, c.p.M.SnBegin[k], c.sumAt(sw, e.Slot), false)
	}
	return c.gemmTime(a.Rows, a.Cols)
}

// gemmTime returns the modeled seconds of an m×k block product over the
// solve's right-hand sides. Only the DES charges compute time, so the pool
// skips the model.
func (c *rankCore) gemmTime(m, k int) float64 {
	if !c.virtual {
		return 0
	}
	return c.model.GemmTime(m, k, c.st.nrhs)
}

// diagSolve is the diagonal-solve kernel of both sweeps: it writes
// inv(L(K,K))·(rhs − lsum(K)) into the zeroed panel dst in the L sweep,
// where rhs is b(K) when keep holds and zero otherwise (the proposed
// algorithm zeroes b(K) on grids that do not own K's node, Alg. 1 lines
// 4–10; the baseline always keeps it), and inv(U(K,K))·(y(K) − usum(K))
// in the U sweep. The right-hand side is staged in the state's rhsBuf. It
// reports false, writing nothing, when the U sweep finds no y(K).
func (c *rankCore) diagSolve(sw, k int, keep bool, dst *sparse.Panel) bool {
	st := c.st
	w, n := c.snWidth(k), st.nrhs
	if cap(st.rhsBuf) < w*n {
		st.rhsBuf = make([]float64, w*n)
	}
	rhs := sparse.Panel{Rows: w, Cols: n, Data: st.rhsBuf[:w*n]}
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

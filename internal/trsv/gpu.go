package trsv

import (
	"fmt"

	"sptrsv/internal/dist"
	"sptrsv/internal/fault"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
)

// The GPU execution model. One rank is one GPU. A supernode column is one
// thread-block task (Algs. 4 and 5); at most SMs tasks run concurrently
// (the NVSHMEM scheduling limit the paper works around with the SOLVE/WAIT
// dual-kernel design — the WAIT kernel is the tagGPUPut delivery here).
// Task duration is the roofline time of its block operations on one SM's
// share of the GPU plus a per-block overhead; dependency tracking (fmod /
// bmod and the spin-wait flags) is exact, so the simulated schedule is a
// list schedule of the real DAG, and the handlers perform the real numeric
// work as tasks execute.
//
// These handlers require the simulation backend: GPU hardware is modeled,
// not present.

// gpuTask describes one queued thread-block task.
type gpuTask struct {
	k    int
	put  *sparse.Panel // received subvector for off-diagonal tasks; nil at diagonal tasks
	isU  bool
	diag bool
}

// flopsBytesL returns the modeled volume of an L task for column k: the
// diagonal GEMM (diagonal tasks only) plus this rank's off-diagonal GEMVs.
func flopsBytesL(r *rankCore, k int, diag bool) (flops, bytes, diagFlops float64) {
	w := float64(r.snWidth(k))
	n := float64(r.st.nrhs)
	if diag {
		diagFlops = 2 * w * w * n
		flops += diagFlops
		bytes += 8 * (w*w + 2*w*n)
	}
	for _, blk := range r.colL[k] {
		rows := float64(len(blk.Rows))
		flops += 2 * rows * w * n
		bytes += 8 * (rows*w + w*n + 2*rows*n)
	}
	return flops, bytes, diagFlops
}

// flopsBytesU mirrors flopsBytesL for U tasks.
func flopsBytesU(r *rankCore, k int, diag bool) (flops, bytes, diagFlops float64) {
	w := float64(r.snWidth(k))
	n := float64(r.st.nrhs)
	if diag {
		diagFlops = 2 * w * w * n
		flops += diagFlops
		bytes += 8 * (w*w + 2*w*n)
	}
	for _, ref := range r.colU[k] {
		rows := float64(ref.Blk.Val.Rows)
		cols := float64(len(ref.Blk.Cols))
		flops += 2 * rows * cols * n
		bytes += 8 * (rows*cols + cols*n + 2*rows*n)
	}
	return flops, bytes, diagFlops
}

// ---- Single GPU per grid (Alg. 4): Px = Py = 1 ----

type gpuSingleRank struct {
	rankCore
	gpu *machine.GPU
	ar  *arHelper
}

// NewGPUSingle returns the handler factory for the single-GPU-per-grid
// variant of the proposed 3D algorithm under default solve options.
func NewGPUSingle(p *dist.Plan, model *machine.Model, b, x *sparse.Panel) func(rank int) runtime.Handler {
	return newGPUSingle(p, model, b, x, SolveOpts{})
}

func newGPUSingle(p *dist.Plan, model *machine.Model, b, x *sparse.Panel, opts SolveOpts) func(rank int) runtime.Handler {
	return func(rank int) runtime.Handler {
		h := &gpuSingleRank{gpu: model.GPU}
		h.rankCore.init(p, model, rank, b, x, opts)
		return h
	}
}

func (h *gpuSingleRank) Done() bool { return h.st.phase == 3 }

func (h *gpuSingleRank) Init(ctx *runtime.Ctx) {
	if !ctx.Virtual() {
		panic(&fault.ProtocolError{Rank: h.rank, Phase: "init",
			Msg: "GPU algorithms require the simulation backend (Engine)"})
	}
	h.ar = newARHelper(&h.rankCore)
	st := h.st
	st.smFree = h.gpu.SMs
	st.tasksLeft = len(h.gp.Sns)
	// The schedule's Fmod/Bmod templates are exactly the per-column
	// dependency counts; refill by copy.
	st.dfmod = append(st.dfmod[:0], h.sg.Fmod...)
	st.dbmod = append(st.dbmod[:0], h.sg.Bmod...)
	for _, k := range h.gp.Sns {
		if h.fmodOf(k) == 0 {
			st.readyTasks = append(st.readyTasks, gpuTask{k: k, diag: true})
		}
	}
	h.startTasks(ctx)
	h.maybeFinishPhase(ctx)
	h.armElastic(ctx)
}

func (h *gpuSingleRank) OnMessage(ctx *runtime.Ctx, m runtime.Msg) {
	h.dispatch(ctx, m, h)
	h.armElastic(ctx)
}

// forceStale implements elasticForcer. The single-GPU variant's L and U
// phases are purely local task DAGs — they cannot stall on a peer, so
// their deadline ticks are no-ops. Only the inter-grid allreduce can be
// left behind by a straggler grid, and its forced closure proceeds with
// the partial sums on hand.
func (h *gpuSingleRank) forceStale(ctx *runtime.Ctx, phase int) {
	if phase >= 1 && h.st.phase == 1 {
		h.markStaleAR()
		h.ar.force(ctx)
		h.finishAR(ctx)
	}
}

func (h *gpuSingleRank) accepts(m runtime.Msg) bool {
	switch m.Tag {
	case tagGPUEvent:
		return true
	case tagARReduce:
		return h.st.phase == 1 && h.ar.acceptsReduce(m.Data.(*vecBundle).Step)
	case tagARBcast:
		return h.st.phase == 1 && h.ar.acceptsBcast()
	}
	panic(&fault.ProtocolError{Rank: h.rank, Tag: m.Tag, Phase: proposedPhase(h.st.phase),
		Msg: fmt.Sprintf("gpu handler received unexpected tag %d from rank %d", m.Tag, m.Src)})
}

// DeadOnArrival implements runtime.DeadLetterer (see new3dRank): allreduce
// bundles below the monotone phase/step gate park forever. GPU self-events
// are always live.
func (h *gpuSingleRank) DeadOnArrival(m runtime.Msg) bool {
	st := h.st
	if st == nil {
		return true
	}
	switch m.Tag {
	case tagARReduce:
		return st.phase > 1 || (st.phase == 1 && h.ar.deadReduce(m.Data.(*vecBundle).Step))
	case tagARBcast:
		return st.phase > 1 || (st.phase == 1 && h.ar.deadBcast())
	}
	return false
}

func (h *gpuSingleRank) process(ctx *runtime.Ctx, m runtime.Msg) {
	switch m.Tag {
	case tagGPUEvent:
		h.onTaskDone(ctx, m.Data.(gpuTask))
	case tagARReduce:
		if h.ar.onReduce(ctx, m.Data.(*vecBundle)) {
			h.finishAR(ctx)
		}
	case tagARBcast:
		if h.ar.onBcast(ctx, m.Data.(*vecBundle)) {
			h.finishAR(ctx)
		}
	}
}

// startTasks launches ready tasks onto free SM slots: the real numeric
// work runs now (dependencies are satisfied), the completion event fires
// after the modeled duration. Each launch batch is one level sweep — the
// tasks launched together are mutually independent (all had their
// counters at zero) — annotated as a single trace span.
func (h *gpuSingleRank) startTasks(ctx *runtime.Ctx) {
	st := h.st
	launched, start := 0, ctx.Now()
	for st.smFree > 0 && len(st.readyTasks) > 0 {
		launched++
		t := st.readyTasks[0]
		st.readyTasks[0] = gpuTask{} // drop the panel reference: release() can't reach popped slots
		st.readyTasks = st.readyTasks[1:]
		st.smFree--
		var dur float64
		if !t.isU {
			flops, bytes, _ := flopsBytesL(&h.rankCore, t.k, true)
			dur = h.gpu.TaskTime(flops, bytes)
			ctx.ComputeT(TagGPUTaskL, 0, func() {
				keep := h.gp.OwnerGridOfSn(t.k) == h.z
				yk, _ := h.diagSolveY(t.k, h.rhsFor(t.k, keep))
				st.y[t.k] = yk
				for _, blk := range h.colL[t.k] {
					h.applyLBlock(blk, t.k, yk)
				}
			})
		} else {
			flops, bytes, _ := flopsBytesU(&h.rankCore, t.k, true)
			dur = h.gpu.TaskTime(flops, bytes)
			ctx.ComputeT(TagGPUTaskU, 0, func() {
				xk, _ := h.diagSolveX(t.k)
				st.xl[t.k] = xk
				if h.gp.OwnerGridOfSn(t.k) == h.z {
					h.writeX(t.k, xk)
				}
				for _, ref := range h.colU[t.k] {
					h.applyUBlock(ref, t.k, xk)
				}
			})
		}
		ctx.After(dur, tagGPUEvent, t)
	}
	if launched > 0 {
		st.counts.sweeps++
		st.counts.sweepTasks += launched
		ctx.Span(runtime.LevelSweepTag(launched), start, ctx.Now()-start)
	}
}

func (h *gpuSingleRank) onTaskDone(ctx *runtime.Ctx, t gpuTask) {
	st := h.st
	st.smFree++
	st.tasksLeft--
	if !t.isU {
		for _, blk := range h.colL[t.k] {
			if h.decFmod(blk.I) == 0 {
				st.readyTasks = append(st.readyTasks, gpuTask{k: blk.I, diag: true})
			}
		}
	} else {
		for _, ref := range h.colU[t.k] {
			if h.decBmod(ref.I) == 0 {
				st.readyTasks = append(st.readyTasks, gpuTask{k: ref.I, diag: true, isU: true})
			}
		}
	}
	h.startTasks(ctx)
	h.maybeFinishPhase(ctx)
}

func (h *gpuSingleRank) maybeFinishPhase(ctx *runtime.Ctx) {
	st := h.st
	if st.tasksLeft != 0 {
		return
	}
	switch st.phase {
	case 0:
		ctx.Mark(MarkLDone)
		st.phase = 1
		st.tasksLeft = -1 // sentinel until the U phase reloads it
		if h.ar.begin(ctx) {
			h.finishAR(ctx)
		}
	case 2:
		ctx.Mark(MarkUDone)
		st.phase = 3
	}
}

func (h *gpuSingleRank) finishAR(ctx *runtime.Ctx) {
	ctx.Mark(MarkZDone)
	st := h.st
	st.phase = 2
	st.tasksLeft = len(h.gp.Sns)
	for _, k := range h.gp.Sns {
		if h.bmodOf(k) == 0 {
			st.readyTasks = append(st.readyTasks, gpuTask{k: k, diag: true, isU: true})
		}
	}
	h.startTasks(ctx)
	h.maybeFinishPhase(ctx)
}

// ---- NVSHMEM multi-GPU (Alg. 5): Px × 1 × Pz ----

type gpuMultiRank struct {
	rankCore
	gpu *machine.GPU
	ar  *arHelper
}

// NewGPUMulti returns the handler factory for the NVSHMEM-based multi-GPU
// variant (Py=1 layouts, as in the paper's Fig. 11) under default solve
// options.
func NewGPUMulti(p *dist.Plan, model *machine.Model, b, x *sparse.Panel) func(rank int) runtime.Handler {
	return newGPUMulti(p, model, b, x, SolveOpts{})
}

func newGPUMulti(p *dist.Plan, model *machine.Model, b, x *sparse.Panel, opts SolveOpts) func(rank int) runtime.Handler {
	return func(rank int) runtime.Handler {
		h := &gpuMultiRank{gpu: model.GPU}
		h.rankCore.init(p, model, rank, b, x, opts)
		return h
	}
}

func (h *gpuMultiRank) Done() bool { return h.st.phase == 3 }

// taskCountL returns the number of L tasks this rank executes: one per
// owned diagonal plus one per broadcast-tree membership (the off-diagonal
// SOLVE blocks of Alg. 5).
func (h *gpuMultiRank) taskCountL() int {
	n := 0
	for _, k := range h.gp.Sns {
		if h.p.DiagRank2D(k) == h.r2d {
			n++
		} else if h.gp.LBcast[k].Contains(h.r2d) {
			n++
		}
	}
	return n
}

func (h *gpuMultiRank) taskCountU() int {
	n := 0
	for _, k := range h.gp.Sns {
		if h.p.DiagRank2D(k) == h.r2d {
			n++
		} else if h.gp.UBcast[k].Contains(h.r2d) {
			n++
		}
	}
	return n
}

func (h *gpuMultiRank) Init(ctx *runtime.Ctx) {
	if !ctx.Virtual() {
		panic(&fault.ProtocolError{Rank: h.rank, Phase: "init",
			Msg: "GPU algorithms require the simulation backend (Engine)"})
	}
	h.ar = newARHelper(&h.rankCore)
	st := h.st
	st.smFree = h.gpu.SMs
	st.tasksLeft = h.taskCountL()
	// With Py=1 every block of row K lives on rank K mod Px, so the fmod
	// counters are purely local (no reduction phase — the reason the paper
	// prefers Py=1 on GPUs): this rank's block counts per row, zero for
	// rows of other process rows.
	st.dfmod = slotCounts(st.dfmod, h.gp.Sns, h.localL)
	st.dbmod = slotCounts(st.dbmod, h.gp.Sns, h.localU)
	for _, k := range h.myDiagSns {
		if h.fmodOf(k) == 0 {
			st.readyTasks = append(st.readyTasks, gpuTask{k: k, diag: true})
		}
	}
	h.startTasks(ctx)
	h.maybeFinishPhase(ctx)
	if h.el != nil && st.putSeenL == nil {
		st.putSeenL = map[int]bool{}
		st.putSeenU = map[int]bool{}
		st.putForcedL = map[int]bool{}
		st.putForcedU = map[int]bool{}
	}
	h.armElastic(ctx)
}

func (h *gpuMultiRank) OnMessage(ctx *runtime.Ctx, m runtime.Msg) {
	h.dispatch(ctx, m, h)
	h.armElastic(ctx)
}

// forceStale implements elasticForcer. The multi-GPU variant's only
// cross-rank dependencies are the one-sided puts and the allreduce: a
// forcing deadline synthesizes a zero-valued put task for every expected
// put that has not arrived (marking the owned rows it feeds stale), after
// which the local task DAG drains the phase through the normal completion
// events; the allreduce closes like the other variants.
func (h *gpuMultiRank) forceStale(ctx *runtime.Ctx, phase int) {
	if h.st.phase == 0 {
		h.forcePuts(ctx, false)
	}
	if phase >= 1 && h.st.phase == 1 {
		h.markStaleAR()
		h.ar.force(ctx)
		h.finishAR(ctx)
	}
	if phase >= 2 && h.st.phase == 2 {
		h.forcePuts(ctx, true)
	}
}

// forcePuts queues a zero-valued put task for every broadcast-tree
// membership of this rank whose put has not been received or synthesized
// yet. A late real put superseded by a synthesized one is dropped in
// process, keeping the phase task count exact. gp.Sns ascends, so the
// synthesis order is deterministic.
func (h *gpuMultiRank) forcePuts(ctx *runtime.Ctx, isU bool) {
	st := h.st
	seen, forced := st.putSeenL, st.putForcedL
	if isU {
		seen, forced = st.putSeenU, st.putForcedU
	}
	added := false
	for _, k := range h.gp.Sns {
		if h.p.DiagRank2D(k) == h.r2d {
			continue
		}
		tree := h.gp.LBcast[k]
		if isU {
			tree = h.gp.UBcast[k]
		}
		if !tree.Contains(h.r2d) || seen[k] || forced[k] {
			continue
		}
		forced[k] = true
		// The zero subvector feeds this rank's blocks of column k: every
		// owned diagonal row those blocks contribute to is now stale.
		if !isU {
			for _, blk := range h.colL[k] {
				if h.p.DiagRank2D(blk.I) == h.r2d {
					h.markStaleL(blk.I)
				}
			}
		} else {
			for _, ref := range h.colU[k] {
				if h.p.DiagRank2D(ref.I) == h.r2d {
					h.markStaleU(ref.I)
				}
			}
		}
		st.readyTasks = append(st.readyTasks, gpuTask{k: k, put: h.newPanel(h.snWidth(k)), isU: isU})
		added = true
	}
	if added {
		h.startTasks(ctx)
	}
}

func (h *gpuMultiRank) accepts(m runtime.Msg) bool {
	switch m.Tag {
	case tagGPUEvent:
		return true
	case tagGPUPut:
		d := m.Data.(*gpuPut)
		return (d.isU && h.st.phase == 2) || (!d.isU && h.st.phase == 0)
	case tagARReduce:
		return h.st.phase == 1 && h.ar.acceptsReduce(m.Data.(*vecBundle).Step)
	case tagARBcast:
		return h.st.phase == 1 && h.ar.acceptsBcast()
	}
	panic(&fault.ProtocolError{Rank: h.rank, Tag: m.Tag, Phase: proposedPhase(h.st.phase),
		Msg: fmt.Sprintf("gpu handler received unexpected tag %d from rank %d", m.Tag, m.Src)})
}

// DeadOnArrival implements runtime.DeadLetterer (see new3dRank): one-sided
// puts for a forcibly closed sweep and allreduce bundles below the monotone
// phase/step gate park forever. GPU self-events are always live.
func (h *gpuMultiRank) DeadOnArrival(m runtime.Msg) bool {
	st := h.st
	if st == nil {
		return true
	}
	switch m.Tag {
	case tagGPUPut:
		if m.Data.(*gpuPut).isU {
			return st.phase > 2
		}
		return st.phase > 0
	case tagARReduce:
		return st.phase > 1 || (st.phase == 1 && h.ar.deadReduce(m.Data.(*vecBundle).Step))
	case tagARBcast:
		return st.phase > 1 || (st.phase == 1 && h.ar.deadBcast())
	}
	return false
}

// gpuPut is a one-sided delivery of a solved subvector (the ready_y / flag
// pair of Alg. 5), shipped in wire form like every other subvector message.
type gpuPut struct {
	K   int
	W   wirePanel
	isU bool
}

func (h *gpuMultiRank) process(ctx *runtime.Ctx, m runtime.Msg) {
	switch m.Tag {
	case tagGPUEvent:
		h.onTaskDone(ctx, m.Data.(gpuTask))
	case tagGPUPut:
		d := m.Data.(*gpuPut)
		if h.el != nil {
			seen, forced := h.st.putSeenL, h.st.putForcedL
			if d.isU {
				seen, forced = h.st.putSeenU, h.st.putForcedU
			}
			if forced[d.K] {
				// A staleness deadline already synthesized this put as a
				// zero panel and the task count charged it; drop the late
				// real delivery.
				return
			}
			seen[d.K] = true
		}
		h.st.readyTasks = append(h.st.readyTasks, gpuTask{k: d.K, put: h.unpackPanel(&d.W), isU: d.isU})
		h.startTasks(ctx)
	case tagARReduce:
		if h.ar.onReduce(ctx, m.Data.(*vecBundle)) {
			h.finishAR(ctx)
		}
	case tagARBcast:
		if h.ar.onBcast(ctx, m.Data.(*vecBundle)) {
			h.finishAR(ctx)
		}
	}
}

// forwardPuts sends v to this rank's children in the tree, with one-sided
// put latency (NVLink inside a node, fabric across nodes), after an
// initial in-task delay. The children come from the schedule's
// precomputed per-slot lists (the ranks in tree-walk order).
func (h *gpuMultiRank) forwardPuts(ctx *runtime.Ctx, k int, v *sparse.Panel, isU bool, delay float64) {
	w, bytes := h.packSend(v)
	put := func(child int) {
		dst := h.p.GlobalRank(h.z, child)
		cost := h.gpu.PutCost(h.rank, dst, bytes)
		ctx.SendAfter(delay+cost, runtime.Msg{
			Dst: dst, Tag: tagGPUPut, Cat: runtime.CatXY,
			Data: &gpuPut{K: k, W: w, isU: isU}, Bytes: bytes,
		})
	}
	kids := h.sr.LBcastKids
	if isU {
		kids = h.sr.UBcastKids
	}
	for _, child := range kids[h.slot(k)] {
		put(int(child))
	}
}

func (h *gpuMultiRank) startTasks(ctx *runtime.Ctx) {
	st := h.st
	launched, start := 0, ctx.Now()
	for st.smFree > 0 && len(st.readyTasks) > 0 {
		launched++
		t := st.readyTasks[0]
		st.readyTasks[0] = gpuTask{} // drop the panel reference: release() can't reach popped slots
		st.readyTasks = st.readyTasks[1:]
		st.smFree--
		diag := t.put == nil
		var dur float64
		if !t.isU {
			flops, bytes, diagFlops := flopsBytesL(&h.rankCore, t.k, diag)
			dur = h.gpu.TaskTime(flops, bytes)
			var yk *sparse.Panel
			ctx.ComputeT(TagGPUTaskL, 0, func() {
				if diag {
					keep := h.gp.OwnerGridOfSn(t.k) == h.z
					yk, _ = h.diagSolveY(t.k, h.rhsFor(t.k, keep))
					st.y[t.k] = yk
				} else {
					yk = t.put
				}
				for _, blk := range h.colL[t.k] {
					h.applyLBlock(blk, t.k, yk)
				}
			})
			delay := 0.0
			if diag {
				delay = diagFlops / (h.gpu.Flops / float64(h.gpu.SMs))
			}
			h.forwardPuts(ctx, t.k, yk, false, delay)
		} else {
			flops, bytes, diagFlops := flopsBytesU(&h.rankCore, t.k, diag)
			dur = h.gpu.TaskTime(flops, bytes)
			var xk *sparse.Panel
			ctx.ComputeT(TagGPUTaskU, 0, func() {
				if diag {
					xk, _ = h.diagSolveX(t.k)
					st.xl[t.k] = xk
					if h.gp.OwnerGridOfSn(t.k) == h.z {
						h.writeX(t.k, xk)
					}
				} else {
					xk = t.put
				}
				for _, ref := range h.colU[t.k] {
					h.applyUBlock(ref, t.k, xk)
				}
			})
			delay := 0.0
			if diag {
				delay = diagFlops / (h.gpu.Flops / float64(h.gpu.SMs))
			}
			h.forwardPuts(ctx, t.k, xk, true, delay)
		}
		ctx.After(dur, tagGPUEvent, t)
	}
	if launched > 0 {
		st.counts.sweeps++
		st.counts.sweepTasks += launched
		ctx.Span(runtime.LevelSweepTag(launched), start, ctx.Now()-start)
	}
}

func (h *gpuMultiRank) onTaskDone(ctx *runtime.Ctx, t gpuTask) {
	st := h.st
	st.smFree++
	st.tasksLeft--
	if !t.isU {
		for _, blk := range h.colL[t.k] {
			if h.decFmod(blk.I) == 0 && h.p.DiagRank2D(blk.I) == h.r2d {
				st.readyTasks = append(st.readyTasks, gpuTask{k: blk.I, diag: true})
			}
		}
	} else {
		for _, ref := range h.colU[t.k] {
			if h.decBmod(ref.I) == 0 && h.p.DiagRank2D(ref.I) == h.r2d {
				st.readyTasks = append(st.readyTasks, gpuTask{k: ref.I, diag: true, isU: true})
			}
		}
	}
	h.startTasks(ctx)
	h.maybeFinishPhase(ctx)
}

func (h *gpuMultiRank) maybeFinishPhase(ctx *runtime.Ctx) {
	st := h.st
	if st.tasksLeft != 0 {
		return
	}
	switch st.phase {
	case 0:
		ctx.Mark(MarkLDone)
		st.phase = 1
		st.tasksLeft = -1
		if h.ar.begin(ctx) {
			h.finishAR(ctx)
		}
	case 2:
		ctx.Mark(MarkUDone)
		st.phase = 3
	}
}

func (h *gpuMultiRank) finishAR(ctx *runtime.Ctx) {
	ctx.Mark(MarkZDone)
	st := h.st
	st.phase = 2
	st.tasksLeft = h.taskCountU()
	for _, k := range h.myDiagSns {
		if h.bmodOf(k) == 0 {
			st.readyTasks = append(st.readyTasks, gpuTask{k: k, diag: true, isU: true})
		}
	}
	h.startTasks(ctx)
	h.maybeFinishPhase(ctx)
}

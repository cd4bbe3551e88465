package trsv

import (
	"cmp"

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
// share of the GPU plus a per-block overhead; dependency tracking (the
// per-sweep counters and the spin-wait flags) is exact, so the simulated
// schedule is a list schedule of the real DAG, and the handler performs
// the real numeric work as tasks execute.
//
// One handler, gpuRank, runs both variants. The NVSHMEM multi-GPU kernels
// (Alg. 5) run on Px × 1 × Pz layouts; the single-GPU-per-grid kernels
// (Alg. 4) are the same handler on a one-rank grid (Px = Py = 1), where
// every broadcast tree is empty, no put is ever sent, and every diagonal
// is local.
//
// The handler requires the simulation backend: GPU hardware is modeled,
// not present.

// gpuTask describes one queued thread-block task.
type gpuTask struct {
	k   int
	sw  int           // sweepL or sweepU
	put *sparse.Panel // received subvector for off-diagonal tasks; nil at diagonal tasks
}

// gpuTaskTag is each sweep's compute span tag.
var gpuTaskTag = [2]int{TagGPUTaskL, TagGPUTaskU}

type gpuRank struct {
	rankCore
	gpu *machine.GPU
	ar  arHelper

	// Task state: launchable tasks in FIFO order, free SM slots, and the
	// open sweep's tasks not yet completed.
	readyTasks        []gpuTask
	smFree, tasksLeft int

	// Elastic mode only: per sweep by slot, the one-sided puts already
	// received versus those synthesized as zero panels at a forcing
	// deadline (a late real put superseded by a synthesized one is
	// dropped, keeping the task count exact).
	putSeen, putForced [2]slotBits
}

// inBcast reports whether this rank belongs to supernode k's broadcast
// tree of sweep sw.
func (h *gpuRank) inBcast(sw, k int) bool { return h.sr.InBcast(sw, h.slot(k)) }

// taskCount returns the number of tasks this rank executes in sweep sw:
// one per owned diagonal plus one per broadcast-tree membership (the
// off-diagonal SOLVE blocks of Alg. 5).
func (h *gpuRank) taskCount(sw int) int {
	n := 0
	for _, k := range h.gp.Sns {
		if h.p.DiagRank2D(k) == h.r2d || h.inBcast(sw, k) {
			n++
		}
	}
	return n
}

// flopsBytes returns the modeled volume of a task for column k of sweep
// sw: the diagonal GEMM (diagonal tasks only) plus this rank's
// off-diagonal block products.
func (h *gpuRank) flopsBytes(sw, k int, diag bool) (flops, bytes, diagFlops float64) {
	w := float64(h.snWidth(k))
	n := float64(h.st.nrhs)
	if diag {
		diagFlops = 2 * w * w * n
		flops += diagFlops
		bytes += 8 * (w*w + 2*w*n)
	}
	for _, e := range h.rd.Col(sw, h.slot(k)) {
		a := &h.store.Panels[e.B]
		rows, cols := float64(a.Rows), float64(a.Cols)
		flops += 2 * rows * cols * n
		bytes += 8 * (rows*cols + cols*n + 2*rows*n)
	}
	return flops, bytes, diagFlops
}

// start implements algorithm: load the local counter templates and open
// the L sweep.
func (h *gpuRank) start(ctx *runtime.Ctx) {
	if !ctx.Virtual() {
		panic(&fault.ProtocolError{Rank: h.rank, Phase: "init",
			Msg: "GPU algorithms require the simulation backend (Engine)"})
	}
	h.ar = newARHelper(&h.rankCore)
	st := h.st
	h.smFree = h.gpu.SMs
	// With Py=1 every block of row K lives on rank K mod Px, so each
	// reduction tree is the diagonal rank alone and the plan's counter
	// templates are purely local (no reduction phase — the reason the
	// paper prefers Py=1 on GPUs): this rank's block counts per row, zero
	// for rows of other process rows.
	rd := h.gp.Ranks[h.r2d]
	for sw := range st.dpend {
		st.dpend[sw] = append(st.dpend[sw][:0], rd.Pending[sw]...)
		if h.el != nil {
			h.putSeen[sw].size(len(h.gp.Sns))
			h.putForced[sw].size(len(h.gp.Sns))
		}
	}
	h.startSweep(ctx, sweepL)
}

// forceStale implements algorithm. The handler's only cross-rank
// dependencies are the one-sided puts and the allreduce: a forcing
// deadline synthesizes a zero-valued put task for every expected put that
// has not arrived (marking the owned rows it feeds stale), after which the
// local task DAG drains the phase through the normal completion events;
// the allreduce closes like the other variants. On a one-rank grid no put
// is expected, so only the allreduce can be forced.
func (h *gpuRank) forceStale(ctx *runtime.Ctx, phase int) {
	if h.st.phase == 0 {
		h.forcePuts(ctx, sweepL)
	}
	if phase >= 1 && h.st.phase == 1 {
		h.markStaleAR()
		h.ar.force(ctx)
		h.finishAR(ctx)
	}
	if phase >= 2 && h.st.phase == 2 {
		h.forcePuts(ctx, sweepU)
	}
}

// forcePuts queues a zero-valued put task for every broadcast-tree
// membership of this rank in sweep sw whose put has not been received or
// synthesized yet. A late real put superseded by a synthesized one is
// dropped in process, keeping the phase task count exact. gp.Sns ascends,
// so the synthesis order is deterministic.
func (h *gpuRank) forcePuts(ctx *runtime.Ctx, sw int) {
	seen, forced := h.putSeen[sw], h.putForced[sw]
	added := false
	for _, k := range h.gp.Sns {
		s := h.slot(k)
		if h.p.DiagRank2D(k) == h.r2d || !h.inBcast(sw, k) || seen.has(s) || forced.has(s) {
			continue
		}
		forced.set(s)
		// The zero subvector feeds this rank's blocks of column k: every
		// owned diagonal row those blocks contribute to is now stale.
		for _, e := range h.rd.Col(sw, s) {
			h.markStaleOwned(sw, h.sg.Sns[e.Slot])
		}
		h.readyTasks = append(h.readyTasks, gpuTask{k: k, sw: sw, put: h.newPanel(h.snWidth(k))})
		added = true
	}
	if added {
		h.startTasks(ctx)
	}
}

// gate implements algorithm: one-sided puts belong to their sweep's phase
// and allreduce bundles to their step of phase 1; GPU self-events are
// always processable.
func (h *gpuRank) gate(m runtime.Msg) int {
	switch m.Tag {
	case tagGPUEvent:
		return 0
	case tagGPUPut:
		return cmp.Compare(sweepPhase(m.Data.(*panelMsg).Sw), h.st.phase)
	case tagARReduce:
		return h.ar.gateReduce(m.Data.(*vecBundle).Step)
	case tagARBcast:
		return h.ar.gateBcast()
	}
	panic(h.unexpected(m, phaseName(h.st.phase, "allreduce")))
}

// process implements algorithm.
func (h *gpuRank) process(ctx *runtime.Ctx, m runtime.Msg) {
	switch m.Tag {
	case tagGPUEvent:
		h.onTaskDone(ctx, m.Data.(*gpuTask))
	case tagGPUPut:
		// A one-sided delivery of a solved subvector (the ready_y / flag
		// pair of Alg. 5); the task reads the sender's panel.
		d := m.Data.(*panelMsg)
		if h.el != nil {
			s := h.slot(d.K)
			if h.putForced[d.Sw].has(s) {
				// A staleness deadline already synthesized this put as a
				// zero panel and the task count charged it; drop the late
				// real delivery.
				return
			}
			h.putSeen[d.Sw].set(s)
		}
		h.readyTasks = append(h.readyTasks, gpuTask{k: d.K, sw: d.Sw, put: d.P})
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

// forwardPuts sends v to this rank's children in the broadcast tree, with
// one-sided put latency (NVLink inside a node, fabric across nodes), after
// an initial in-task delay.
func (h *gpuRank) forwardPuts(ctx *runtime.Ctx, sw, k int, v *sparse.Panel, delay float64) {
	children := h.bcastKids(sw, k)
	if len(children) == 0 {
		return
	}
	d := h.record(k, v)
	d.Sw = sw
	bytes := singleBytes(v)
	for _, child := range children {
		dst := h.p.GlobalRank(h.z, int(child))
		ctx.SendAfter(delay+h.gpu.PutCost(h.rank, dst, bytes), runtime.Msg{
			Dst: dst, Tag: tagGPUPut, Cat: runtime.CatXY,
			Data: d, Bytes: bytes,
		})
	}
}

// runTask performs task t's numeric work — the diagonal solve at a
// diagonal task, then this rank's block products of the column — and
// returns the column's solved subvector.
func (h *gpuRank) runTask(t *gpuTask) *sparse.Panel {
	v := t.put
	if v == nil {
		v, _ = h.solvePanel(t.sw, t.k, h.gp.OwnerGridOfSn(t.k) == h.z)
	}
	for _, e := range h.rd.Col(t.sw, h.slot(t.k)) {
		h.applyBlock(t.sw, e, t.k, v)
	}
	return v
}

// startTasks launches ready tasks onto free SM slots: the real numeric
// work runs now (dependencies are satisfied), the completion event fires
// after the modeled duration. Each launch batch is one level sweep — the
// tasks launched together are mutually independent (all had their
// counters at zero) — annotated as a single trace span.
func (h *gpuRank) startTasks(ctx *runtime.Ctx) {
	st := h.st
	launched, start := 0, ctx.Now()
	for h.smFree > 0 && launched < len(h.readyTasks) {
		// The task's completion event carries it as a record from the
		// solve's storage, not boxed by value.
		t := st.tasks.next()
		*t = h.readyTasks[launched]
		launched++
		h.smFree--
		diag := t.put == nil
		flops, bytes, diagFlops := h.flopsBytes(t.sw, t.k, diag)
		// The task's time is its completion event's delay, so the span
		// charges none.
		ctx.ComputeT(gpuTaskTag[t.sw], 0, nil)
		v := h.runTask(t)
		delay := 0.0
		if diag {
			delay = diagFlops / (h.gpu.Flops / float64(h.gpu.SMs))
		}
		h.forwardPuts(ctx, t.sw, t.k, v, delay)
		ctx.After(h.gpu.TaskTime(flops, bytes), tagGPUEvent, t)
	}
	if launched > 0 {
		// Slide the waiting tasks down instead of reslicing from the
		// front, so the queue keeps its backing array.
		h.readyTasks = append(h.readyTasks[:0], h.readyTasks[launched:]...)
		st.counts.sweeps++
		st.counts.sweepTasks += launched
		ctx.Span(runtime.LevelSweepTag(launched), start, ctx.Now()-start)
	}
}

func (h *gpuRank) onTaskDone(ctx *runtime.Ctx, t *gpuTask) {
	h.smFree++
	h.tasksLeft--
	for _, e := range h.rd.Col(t.sw, h.slot(t.k)) {
		h.contributed(t.sw, h.sg.Sns[e.Slot])
	}
	h.startTasks(ctx)
	h.maybeFinishPhase(ctx)
}

// contributed records one finished block product into row i of sweep sw,
// queueing i's diagonal task when it was the last one and i is mine.
func (h *gpuRank) contributed(sw, i int) {
	if h.decPending(sw, i) == 0 && h.p.DiagRank2D(i) == h.r2d {
		h.readyTasks = append(h.readyTasks, gpuTask{k: i, sw: sw})
	}
}

// markStaleOwned marks row i of sweep sw stale when this rank owns its
// diagonal.
func (h *gpuRank) markStaleOwned(sw, i int) {
	if h.p.DiagRank2D(i) == h.r2d {
		h.markStale(sw, i)
	}
}

// startSweep opens sweep sw: this rank's task budget, then every owned
// diagonal with no outstanding local dependency.
func (h *gpuRank) startSweep(ctx *runtime.Ctx, sw int) {
	h.tasksLeft = h.taskCount(sw)
	for _, k := range h.myDiagSns {
		if h.pendingOf(sw, k) == 0 {
			h.readyTasks = append(h.readyTasks, gpuTask{k: k, sw: sw})
		}
	}
	h.startTasks(ctx)
	h.maybeFinishPhase(ctx)
}

func (h *gpuRank) maybeFinishPhase(ctx *runtime.Ctx) {
	st := h.st
	if h.tasksLeft != 0 {
		return
	}
	switch st.phase {
	case 0:
		ctx.Mark(MarkLDone)
		st.phase = 1
		h.tasksLeft = -1 // sentinel until the U sweep reloads it
		if h.ar.begin(ctx) {
			h.finishAR(ctx)
		}
	case 2:
		ctx.Mark(MarkUDone)
		st.phase = 3
	}
}

func (h *gpuRank) finishAR(ctx *runtime.Ctx) {
	ctx.Mark(MarkZDone)
	h.st.phase = 2
	h.startSweep(ctx, sweepU)
}

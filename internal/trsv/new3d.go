package trsv

import (
	"fmt"

	"sptrsv/internal/fault"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
)

// new3dRank implements the proposed 3D SpTRSV (Alg. 1) for one rank:
//
//	phase L:  message-driven 2D L-solve of L^z over the grid's whole path,
//	          with RHS zeroing for replicated nodes (lines 4–10);
//	phase AR: sparse allreduce of the partial y subvectors (Alg. 2);
//	phase U:  message-driven 2D U-solve of U^z (replicated computation).
//
// With Pz=1 phases AR is skipped and the handler is exactly the 2D solver
// with the plan's communication-tree kind (flat = classic 2D, binary =
// Liu et al. CSC '18).
type new3dRank struct {
	rankCore

	// Allreduce state: ar is the paper's sparse allreduce (Alg. 2); when
	// naive is set, nar runs the per-node strawman instead (ablation).
	ar    *arHelper
	nar   *naiveAR
	naive bool
}

func (h *new3dRank) Done() bool { return h.st.phase == 3 }

func (h *new3dRank) Init(ctx *runtime.Ctx) {
	rd := h.gp.Ranks[h.r2d]
	st := h.st
	// The schedule carries this rank's counter templates as flat
	// slot-indexed slices; refill by copy.
	st.dpend[sweepL] = append(st.dpend[sweepL][:0], h.sr.PendingL...)
	st.dpend[sweepU] = append(st.dpend[sweepU][:0], h.sr.PendingU...)
	st.lRecvLeft = rd.LRecv
	st.uRecvLeft = rd.URecv
	h.ar = newARHelper(&h.rankCore)

	// Kick off: diagonal supernodes with no pending contributions.
	for _, k := range h.myDiagSns {
		if h.pendingOf(sweepL, k) == 0 {
			st.enqueueY(k)
		}
	}
	h.drainReadyY(ctx, h)
	h.maybeFinishL(ctx)
	h.armElastic(ctx)
}

func (h *new3dRank) OnMessage(ctx *runtime.Ctx, m runtime.Msg) {
	h.dispatch(ctx, m, h)
	h.armElastic(ctx)
}

// accepts reports whether the message can be processed in the current
// phase; inter-grid and U messages arriving early are buffered.
func (h *new3dRank) accepts(m runtime.Msg) bool {
	switch m.Tag {
	case tagYBcast, tagLReduce:
		return h.st.phase == 0
	case tagARReduce:
		return h.st.phase == 1 && h.ar.acceptsReduce(m.Data.(*vecBundle).Step)
	case tagARBcast:
		return h.st.phase == 1 && h.ar.acceptsBcast()
	case tagNaiveARUp:
		return h.st.phase == 1 && h.nar != nil && h.nar.accepts(m)
	case tagXBcast, tagUReduce:
		return h.st.phase == 2
	}
	panic(&fault.ProtocolError{Rank: h.rank, Tag: m.Tag, Phase: proposedPhase(h.st.phase),
		Msg: fmt.Sprintf("received unexpected tag %d from rank %d", m.Tag, m.Src)})
}

// DeadOnArrival implements runtime.DeadLetterer: accepts' gates are
// monotone (the phase and the allreduce step only advance), so a message
// that arrives below the current gate parks forever and must not charge
// wait time. Naive-allreduce traffic is conservatively never dead.
func (h *new3dRank) DeadOnArrival(m runtime.Msg) bool {
	st := h.st
	if st == nil {
		return true
	}
	switch m.Tag {
	case tagYBcast, tagLReduce:
		return st.phase > 0
	case tagARReduce:
		return st.phase > 1 || (st.phase == 1 && h.ar.deadReduce(m.Data.(*vecBundle).Step))
	case tagARBcast:
		return st.phase > 1 || (st.phase == 1 && h.ar.deadBcast())
	case tagXBcast, tagUReduce:
		return st.phase > 2
	}
	return false
}

func (h *new3dRank) process(ctx *runtime.Ctx, m runtime.Msg) {
	switch m.Tag {
	case tagYBcast:
		d := m.Data.(*yMsg)
		h.st.lRecvLeft--
		h.onY(ctx, d.K, h.unpackPanel(&d.W))
		h.drainReadyY(ctx, h)
		h.maybeFinishL(ctx)
	case tagLReduce:
		d := m.Data.(*sumMsg)
		h.st.lRecvLeft--
		addWire(h.getSum(sweepL, d.K), &d.W)
		h.contribution(ctx, sweepL, d.K, h.gp.LReduce[d.K])
		h.drainReadyY(ctx, h)
		h.maybeFinishL(ctx)
	case tagARReduce:
		if h.ar.onReduce(ctx, m.Data.(*vecBundle)) {
			h.finishAR(ctx)
		}
	case tagARBcast:
		if h.ar.onBcast(ctx, m.Data.(*vecBundle)) {
			h.finishAR(ctx)
		}
	case tagNaiveARUp:
		if h.nar.onMsg(ctx, m) {
			h.finishAR(ctx)
		}
	case tagXBcast:
		d := m.Data.(*yMsg)
		h.st.uRecvLeft--
		h.onX(ctx, d.K, h.unpackPanel(&d.W))
		h.drainReadyX(ctx, h)
		h.maybeFinishU(ctx)
	case tagUReduce:
		d := m.Data.(*sumMsg)
		h.st.uRecvLeft--
		addWire(h.getSum(sweepU, d.K), &d.W)
		h.contribution(ctx, sweepU, d.K, h.gp.UReduce[d.K])
		h.drainReadyX(ctx, h)
		h.maybeFinishU(ctx)
	}
}

// ---- L phase ----

// onY handles a received (or locally computed) y(K): forward along the
// broadcast tree and apply my column-K blocks.
func (h *new3dRank) onY(ctx *runtime.Ctx, k int, yk *sparse.Panel) {
	h.bcast(ctx, sweepL, k, yk)
	for _, blk := range h.colL[k] {
		secs := h.applyLBlock(blk, k, yk)
		ctx.ComputeT(TagApplyL, secs, nil)
		h.contribution(ctx, sweepL, blk.I, h.gp.LReduce[blk.I])
	}
}

// bcastTag is each sweep's broadcast-tree message tag.
var bcastTag = [2]int{tagYBcast, tagXBcast}

// bcast forwards a solved subvector of sweep sw down the supernode's
// broadcast tree, packing it once and reusing the wire form for every
// child.
func (h *new3dRank) bcast(ctx *runtime.Ctx, sw, k int, v *sparse.Panel) {
	children := h.bcastKids(sw, k)
	if len(children) == 0 {
		return
	}
	w, bytes := h.packSend(v)
	for _, child := range children {
		ctx.Send(runtime.Msg{
			Dst: h.p.GlobalRank(h.z, int(child)), Tag: bcastTag[sw], Cat: runtime.CatXY,
			Data: &yMsg{K: k, W: w}, Bytes: bytes,
		})
	}
}

// keepB implements diagSolver: the proposed algorithm keeps b(K) only on
// the grid that owns K's path node (Alg. 1 lines 4–10).
func (h *new3dRank) keepB(k int) bool { return h.gp.OwnerGridOfSn(k) == h.z }

// solveY performs one L-phase diagonal solve and its follow-ups
// (diagSolver, driven by the shared ready-queue drain).
func (h *new3dRank) solveY(ctx *runtime.Ctx, k int) {
	yk, secs := h.solveYPanel(k, h.keepB(k))
	ctx.ComputeT(TagDiagSolveL, secs, nil)
	h.st.y.set(k, yk)
	h.onY(ctx, k, yk)
}

func (h *new3dRank) maybeFinishL(ctx *runtime.Ctx) {
	st := h.st
	if st.phase != 0 || st.lRecvLeft != 0 || len(st.readyY) != 0 {
		return
	}
	ctx.Mark(MarkLDone)
	st.phase = 1
	if h.naive {
		h.nar = newNaiveAR(&h.rankCore)
		if h.nar.begin(ctx) {
			h.finishAR(ctx)
		}
		return
	}
	if h.ar.begin(ctx) {
		h.finishAR(ctx)
	}
}

func (h *new3dRank) finishAR(ctx *runtime.Ctx) {
	ctx.Mark(MarkZDone)
	st := h.st
	st.phase = 2
	for _, k := range h.myDiagSns {
		if h.pendingOf(sweepU, k) == 0 {
			h.enqueueX(k)
		}
	}
	h.drainReadyX(ctx, h)
	h.maybeFinishU(ctx)
}

// ---- U phase ----

func (h *new3dRank) onX(ctx *runtime.Ctx, k int, xk *sparse.Panel) {
	h.bcast(ctx, sweepU, k, xk)
	for _, ref := range h.colU[k] {
		secs := h.applyUBlock(ref, k, xk)
		ctx.ComputeT(TagApplyU, secs, nil)
		h.contribution(ctx, sweepU, ref.I, h.gp.UReduce[ref.I])
	}
}

// solveX performs one U-phase diagonal solve and its follow-ups.
func (h *new3dRank) solveX(ctx *runtime.Ctx, k int) {
	xk, secs := h.solveXPanel(k)
	ctx.ComputeT(TagDiagSolveU, secs, nil)
	h.st.xl.set(k, xk)
	if h.gp.OwnerGridOfSn(k) == h.z {
		h.writeX(k, xk)
	}
	h.onX(ctx, k, xk)
}

func (h *new3dRank) maybeFinishU(ctx *runtime.Ctx) {
	st := h.st
	if st.phase != 2 || st.uRecvLeft != 0 || len(st.readyX) != 0 {
		return
	}
	ctx.Mark(MarkUDone)
	st.phase = 3
}

// ---- elastic forcing ----

// forceStale implements elasticForcer: close every phase up to and
// including the tick's phase that is still open, proceeding with whatever
// inputs are on hand. Each closure runs the normal phase-transition
// machinery (so forced diagonal solves still broadcast, the allreduce
// still sends its bundles, and the phase markers still fire), and every
// row solved without all its contributions is recorded stale.
func (h *new3dRank) forceStale(ctx *runtime.Ctx, phase int) {
	if h.st.phase == 0 {
		h.forceL(ctx)
	}
	// Each closure can admit messages that arrived ahead of their phase;
	// consume them before declaring the next phase's inputs missing.
	h.drainDeferred(ctx, h)
	if phase >= 1 && h.st.phase == 1 {
		h.markStaleAR()
		if h.naive {
			h.nar.force(ctx)
		} else {
			h.ar.force(ctx)
		}
		h.finishAR(ctx)
		h.drainDeferred(ctx, h)
	}
	if phase >= 2 && h.st.phase == 2 {
		h.forceU(ctx)
	}
}

// forceL closes the L phase: every unsolved diagonal row of this rank is
// solved with its current (incomplete) partial sums — missing
// contributions read as zero — and the outstanding receive budget is
// dropped. myDiagSns ascends, so the forced solve order is deterministic.
func (h *new3dRank) forceL(ctx *runtime.Ctx) {
	st := h.st
	for _, k := range h.myDiagSns {
		if st.y.get(k) == nil {
			h.markStale(sweepL, k)
			h.zeroPending(sweepL, k)
			st.enqueueY(k)
		}
	}
	st.lRecvLeft = 0
	h.drainReadyY(ctx, h)
	h.maybeFinishL(ctx)
}

// forceU mirrors forceL for the U phase.
func (h *new3dRank) forceU(ctx *runtime.Ctx) {
	st := h.st
	for _, k := range h.myDiagSns {
		if st.xl.get(k) == nil {
			h.markStale(sweepU, k)
			h.zeroPending(sweepU, k)
			h.enqueueX(k)
		}
	}
	st.uRecvLeft = 0
	h.drainReadyX(ctx, h)
	h.maybeFinishU(ctx)
}

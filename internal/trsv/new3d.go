package trsv

import (
	"cmp"

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
	ar    arHelper
	nar   *naiveAR
	naive bool
}

// start implements algorithm: refill the counter templates and kick off
// the diagonal supernodes with no pending contributions.
func (h *new3dRank) start(ctx *runtime.Ctx) {
	st := h.st
	// The plan carries this rank's counter templates as flat slot-indexed
	// slices; refill by copy.
	rd := h.gp.Ranks[h.r2d]
	for sw := range st.dpend {
		st.dpend[sw] = append(st.dpend[sw][:0], rd.Pending[sw]...)
	}
	st.recvLeft = rd.Recv
	h.ar = newARHelper(&h.rankCore)
	h.startSweep(ctx, sweepL)
}

// gate implements algorithm. Tree traffic belongs to its sweep's phase and
// allreduce bundles to their step of phase 1; naive-allreduce traffic is
// conservatively never dead.
func (h *new3dRank) gate(m runtime.Msg) int {
	ph := h.st.phase
	switch m.Tag {
	case tagYBcast, tagLReduce:
		return cmp.Compare(0, ph)
	case tagARReduce:
		return h.ar.gateReduce(m.Data.(*vecBundle).Step)
	case tagARBcast:
		return h.ar.gateBcast()
	case tagNaiveARUp:
		if ph != 1 || h.nar == nil {
			return 1
		}
		return h.nar.gate(m.Data.(*vecBundle).Step)
	case tagXBcast, tagUReduce:
		return cmp.Compare(2, ph)
	}
	panic(h.unexpected(m, phaseName(ph, "allreduce")))
}

// process implements algorithm.
func (h *new3dRank) process(ctx *runtime.Ctx, m runtime.Msg) {
	switch m.Tag {
	case tagYBcast, tagLReduce, tagXBcast, tagUReduce:
		sw, d := sweepOf(m.Tag), m.Data.(*panelMsg)
		h.st.recvLeft[sw]--
		if m.Tag == bcastTag[sw] {
			h.onSolved(ctx, sw, d.K, d.P)
		} else {
			h.getSum(sw, d.K).AddFrom(d.P)
			h.contribution(ctx, sw, h.slot(d.K))
		}
		h.drainReady(ctx, h, sw)
		h.maybeFinish(ctx, sw)
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
	}
}

// onSolved handles a received (or locally computed) solution y(K) or x(K)
// of sweep sw: forward it along the broadcast tree and apply my column-K
// blocks.
func (h *new3dRank) onSolved(ctx *runtime.Ctx, sw, k int, v *sparse.Panel) {
	h.bcast(ctx, sw, k, v)
	for _, e := range h.rd.Col(sw, h.slot(k)) {
		ctx.ComputeT(applyTag[sw], h.applyBlock(sw, e, k, v), nil)
		h.contribution(ctx, sw, e.Slot)
	}
}

// bcast forwards a solved subvector of sweep sw down the supernode's
// broadcast tree in one payload record that every child reads.
func (h *new3dRank) bcast(ctx *runtime.Ctx, sw, k int, v *sparse.Panel) {
	children := h.bcastKids(sw, k)
	if len(children) == 0 {
		return
	}
	d := h.record(k, v)
	for _, child := range children {
		h.sendXY(ctx, int(child), bcastTag[sw], d)
	}
}

// solve performs one diagonal solve of sweep sw and its follow-ups
// (diagSolver, driven by the shared ready-queue drain). Only the grid that
// owns K's path node keeps b(K) (Alg. 1 lines 4–10).
func (h *new3dRank) solve(ctx *runtime.Ctx, sw, k int) {
	v, secs := h.solvePanel(sw, k, h.gp.OwnerGridOfSn(k) == h.z)
	ctx.ComputeT(diagTag[sw], secs, nil)
	h.onSolved(ctx, sw, k, v)
}

// startSweep opens sweep sw: every owned diagonal with no pending
// contribution is solvable at once.
func (h *new3dRank) startSweep(ctx *runtime.Ctx, sw int) {
	for _, k := range h.myDiagSns {
		if h.pendingOf(sw, k) == 0 {
			h.enqueue(sw, k)
		}
	}
	h.drainReady(ctx, h, sw)
	h.maybeFinish(ctx, sw)
}

// maybeFinish closes sweep sw's phase once every expected message has
// arrived and no row is left to solve; closing the L sweep starts the
// inter-grid allreduce.
func (h *new3dRank) maybeFinish(ctx *runtime.Ctx, sw int) {
	st := h.st
	if st.phase != sweepPhase(sw) || st.recvLeft[sw] != 0 || len(st.ready[sw]) != 0 {
		return
	}
	ctx.Mark(doneMark[sw])
	st.phase++
	if sw == sweepU {
		return
	}
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
	h.st.phase = 2
	h.startSweep(ctx, sweepU)
}

// ---- elastic forcing ----

// forceStale implements algorithm: close every phase up to and
// including the tick's phase that is still open, proceeding with whatever
// inputs are on hand. Each closure runs the normal phase-transition
// machinery (so forced diagonal solves still broadcast, the allreduce
// still sends its bundles, and the phase markers still fire), and every
// row solved without all its contributions is recorded stale.
func (h *new3dRank) forceStale(ctx *runtime.Ctx, phase int) {
	if h.st.phase == 0 {
		h.force(ctx, sweepL)
	}
	// Each closure can admit messages that arrived ahead of their phase;
	// consume them before declaring the next phase's inputs missing.
	h.drainDeferred(ctx)
	if phase >= 1 && h.st.phase == 1 {
		h.markStaleAR()
		if h.naive {
			h.nar.force(ctx)
		} else {
			h.ar.force(ctx)
		}
		h.finishAR(ctx)
		h.drainDeferred(ctx)
	}
	if phase >= 2 && h.st.phase == 2 {
		h.force(ctx, sweepU)
	}
}

// force closes sweep sw's phase: every unsolved diagonal row of this rank
// is solved with its current (incomplete) partial sums — missing
// contributions read as zero — and the outstanding receive budget is
// dropped. myDiagSns ascends, so the forced solve order is deterministic.
func (h *new3dRank) force(ctx *runtime.Ctx, sw int) {
	st := h.st
	for _, k := range h.myDiagSns {
		if st.sol[sw].get(k) == nil {
			h.markStale(sw, k)
			h.zeroPending(sw, k)
			h.enqueue(sw, k)
		}
	}
	st.recvLeft[sw] = 0
	h.drainReady(ctx, h, sw)
	h.maybeFinish(ctx, sw)
}

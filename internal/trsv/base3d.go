package trsv

import (
	"cmp"
	"fmt"

	"sptrsv/internal/dist"
	"sptrsv/internal/fault"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
)

// base3dRank implements the baseline 3D SpTRSV (Sao et al., ICS '19) for
// one rank. Grid z (with s trailing zero bits) processes path nodes
// 0 (leaf) through s, one at a time:
//
//	L-solve, node i: pre-gathered cross-node lsum + message-driven 2D solve
//	  with one flat broadcast tree per (column, row-node) pair and a flat
//	  within-node reduction; then a pairwise inter-grid merge of leftover
//	  lsum rows with grid z+2^i (the per-level synchronization the proposed
//	  algorithm eliminates);
//	U-solve: the mirror image, top-down, with pairwise x broadcasts.
//
// With Pz=1 this is the classic 2D solver with flat communication.
type base3dRank struct {
	rankCore

	s int // trailing zeros of z, capped at L = log2(Pz)

	// Stage state: the current L and U node stages, whether the L sweep
	// awaits the inter-grid merge of its current stage, and the receives
	// each stage still expects, by sweep.
	lStage, uStage int
	lAwaitMerge    bool
	remaining      [2][]int
}

func (h *base3dRank) base() *dist.Baseline { return h.gp.Base }

// start implements algorithm: refill the per-node-group counter templates
// and stage budgets, then kick off the leaf node.
func (h *base3dRank) start(ctx *runtime.Ctx) {
	bb := h.base()
	h.s = bb.S
	rd := bb.Ranks[h.r2d]
	h.parent = rd.Parent
	st := h.st
	for sw := range st.dpend {
		st.dpend[sw] = append(st.dpend[sw][:0], rd.Pending[sw]...)
		h.remaining[sw] = append([]int(nil), rd.Remaining[sw]...)
	}
	h.enqueueStage(0)
	h.drainReady(ctx, h, sweepL)
	h.advanceL(ctx)
}

// gate implements algorithm: the phase, the L-stage cursor and the merge
// wait only advance.
func (h *base3dRank) gate(m runtime.Msg) int {
	ph := h.st.phase
	switch m.Tag {
	case tagYBcast, tagLReduce:
		return h.gateL(h.gp.NodeOf[m.Data.(*panelMsg).K], false)
	case tagZGatherL:
		return h.gateL(m.Data.(*vecBundle).Step, true)
	case tagZBcastU:
		return cmp.Compare(1, ph)
	case tagXBcast, tagUReduce:
		return cmp.Compare(2, ph)
	}
	panic(h.unexpected(m, phaseName(ph, "Z-exchange")))
}

// gateL places L-phase traffic of node stage i: a tree message (merge
// false), processable while the stage runs, or the inter-grid merge bundle
// (merge true), processable while the stage awaits it.
func (h *base3dRank) gateL(i int, merge bool) int {
	switch ph := h.st.phase; {
	case ph != 0:
		return cmp.Compare(0, ph)
	case i < h.lStage:
		return -1
	case i == h.lStage && h.lAwaitMerge == merge:
		return 0
	}
	return 1
}

// process implements algorithm.
func (h *base3dRank) process(ctx *runtime.Ctx, m runtime.Msg) {
	st := h.st
	switch m.Tag {
	case tagYBcast, tagLReduce, tagXBcast, tagUReduce:
		// Every admitted message's row lies at or below stage s: the L
		// gates admit only the current stage, and U traffic for the
		// ancestors above s is charged to stage s (re-broadcasts).
		sw, d := sweepOf(m.Tag), m.Data.(*panelMsg)
		h.remaining[sw][min(h.gp.NodeOf[d.K], h.s)]--
		if m.Tag == bcastTag[sw] {
			h.applyBlocks(ctx, sw, d.K, d.P, d.G, d.G)
		} else {
			h.getSum(sw, d.K).AddFrom(d.P)
			h.contribution(ctx, sw, h.slot(d.K))
		}
		h.drainReady(ctx, h, sw)
		if sw == sweepL {
			h.advanceL(ctx)
		} else {
			h.advanceU(ctx)
		}
	case tagZGatherL:
		d := m.Data.(*vecBundle)
		for i, k := range d.Ks {
			h.getSum(sweepL, k).AddFrom(d.Ps[i])
		}
		h.nextLStage(ctx)
	case tagZBcastU:
		d := m.Data.(*vecBundle)
		st.phase = 2
		h.uStage = h.s
		for i, k := range d.Ks {
			st.sol[sweepU].set(k, d.Ps[i])
		}
		for _, k := range d.Ks {
			h.spread(ctx, sweepU, k, st.sol[sweepU].get(k), h.s)
		}
		h.startU(ctx)
	}
}

// applyBlocks applies my blocks of column k in sweep sw whose rows lie in
// path nodes lo..hi and feeds each product to its row's reduction: every U
// row, but only the L rows inside K's own node — cross-node lsum rows wait
// for the pre-gather.
func (h *base3dRank) applyBlocks(ctx *runtime.Ctx, sw, k int, v *sparse.Panel, lo, hi int) {
	for _, e := range h.rd.Col(sw, h.slot(k)) {
		if g := h.gp.NodeOf[h.sg.Sns[e.Slot]]; g >= lo && g <= hi {
			ctx.ComputeT(applyTag[sw], h.applyBlock(sw, e, k, v), nil)
			if sw == sweepU || g == h.gp.NodeOf[k] {
				h.contribution(ctx, sw, e.Slot)
			}
		}
	}
}

// spread broadcasts a solved subvector of sweep sw down my grid's group
// trees of the path nodes up to maxNode — the baseline's one broadcast per
// row-node group, sized once and shared by every hop, one payload record
// per group — and applies my own blocks whose rows lie in those nodes.
// Only k's diagonal rank solves or receives x(k) in a bundle, and it is the
// root of every group tree, so its fan-out is each tree's root children,
// read from the member list without a per-send allocation.
func (h *base3dRank) spread(ctx *runtime.Ctx, sw, k int, v *sparse.Panel, maxNode int) {
	if h.p.DiagRank2D(k) != h.r2d {
		panic(&fault.ProtocolError{Rank: h.rank, Phase: phaseName(h.st.phase, "Z-exchange"),
			Msg: fmt.Sprintf("spreading supernode %d off its diagonal rank", k)})
	}
	for _, gt := range h.base().BcastGroups[sw][k] {
		if gt.Node > maxNode || len(gt.Kids) == 0 {
			continue
		}
		d := h.record(k, v)
		d.G = gt.Node
		for _, child := range gt.Kids {
			h.sendXY(ctx, child, bcastTag[sw], d)
		}
	}
	h.applyBlocks(ctx, sw, k, v, 0, maxNode)
}

// solve performs one diagonal solve of sweep sw plus the baseline's
// per-row-node-group broadcasts and block applications (diagSolver, driven
// by the shared drain). Every grid keeps b(K): the baseline's grids
// partition the path nodes, never replicate them. A solved L row drops its
// lsum, which the inter-grid merge must not ship.
func (h *base3dRank) solve(ctx *runtime.Ctx, sw, k int) {
	v, secs := h.solvePanel(sw, k, true)
	ctx.ComputeT(diagTag[sw], secs, nil)
	if sw == sweepL {
		h.st.sum[sweepL].set(k, nil)
	}
	h.spread(ctx, sw, k, v, len(h.gp.Path))
}

// enqueueStage queues this rank's diagonal rows of L node stage i that
// need no further contribution.
func (h *base3dRank) enqueueStage(i int) {
	for _, k := range h.myDiagSns {
		if h.gp.NodeOf[k] == i && h.pendingOf(sweepL, k) == 0 {
			h.enqueue(sweepL, k)
		}
	}
}

// nextLStage completes an inter-grid merge: the L sweep moves to the next
// node stage, forwards its gathered cross-node sums and solves the rows
// that are ready.
func (h *base3dRank) nextLStage(ctx *runtime.Ctx) {
	h.lAwaitMerge = false
	h.lStage++
	h.sendGathers(ctx)
	h.enqueueStage(h.lStage)
	h.drainReady(ctx, h, sweepL)
	h.advanceL(ctx)
}

// sendGathers forwards my accumulated cross-node lsum rows for the new
// current node to their diagonal ranks.
func (h *base3dRank) sendGathers(ctx *runtime.Ctx) {
	st := h.st
	for _, k := range h.gp.Sns {
		if h.gp.NodeOf[k] != h.lStage || k%h.p.Layout.Px != h.row {
			continue
		}
		diagCol := k % h.p.Layout.Py
		if h.col == diagCol || !containsCol(h.base().GatherCols[k], h.col) {
			continue
		}
		h.sendXY(ctx, h.p.DiagRank2D(k), tagLReduce, h.record(k, h.getSum(sweepL, k)))
		st.sum[sweepL].set(k, nil)
	}
}

func containsCol(cols []int, c int) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

// advanceL moves through node stages once the current stage has quiesced.
func (h *base3dRank) advanceL(ctx *runtime.Ctx) {
	st := h.st
	for st.phase == 0 && !h.lAwaitMerge && h.remaining[sweepL][h.lStage] == 0 && len(st.ready[sweepL]) == 0 {
		if h.lStage < h.s {
			h.lAwaitMerge = true
			return
		}
		h.finishL(ctx)
		return
	}
}

func (h *base3dRank) finishL(ctx *runtime.Ctx) {
	ctx.Mark(MarkLDone)
	st := h.st
	if h.z != 0 {
		h.sendZ(ctx, h.z-(1<<h.s), tagZGatherL, h.leftoverBundle())
		st.phase = 1 // await the U bundle
		return
	}
	ctx.Mark(MarkZDone)
	st.phase = 2
	h.uStage = h.s
	h.startU(ctx)
}

// leftoverBundle bundles the leftover lsum rows of the unprocessed ancestor
// nodes (path nodes above s, which the partner grid continues) for the
// inter-grid merge and drops every remaining lsum row. A strict run has
// no leftover at or below s; after an elastic forced close a rank can
// still hold partial sums for its own nodes, which lie off the partner's
// path and must not ship.
func (h *base3dRank) leftoverBundle() *vecBundle {
	st := h.st
	b := &vecBundle{Step: h.s}
	st.sum[sweepL].each(func(k int, s *sparse.Panel) {
		if h.gp.NodeOf[k] > h.s {
			b.Ks = append(b.Ks, k)
			b.Ps = append(b.Ps, s)
		}
	})
	st.sum[sweepL].clear() // ownership of the shipped panels moved into the bundle
	return b
}

// ---- U phase ----

func (h *base3dRank) startU(ctx *runtime.Ctx) {
	if h.z != 0 {
		ctx.Mark(MarkZDone)
	}
	for _, k := range h.myDiagSns {
		if h.gp.NodeOf[k] <= h.s && h.pendingOf(sweepU, k) == 0 {
			h.enqueue(sweepU, k)
		}
	}
	h.drainReady(ctx, h, sweepU)
	h.advanceU(ctx)
}

// advanceU retires node stages top-down, sending the pairwise x bundle to
// the grid that resumes at each level.
func (h *base3dRank) advanceU(ctx *runtime.Ctx) {
	st := h.st
	for st.phase == 2 && h.remaining[sweepU][h.uStage] == 0 && len(st.ready[sweepU]) == 0 {
		if h.uStage >= 1 {
			b := &vecBundle{Step: h.uStage}
			st.sol[sweepU].each(func(k int, x *sparse.Panel) {
				if h.gp.NodeOf[k] >= h.uStage {
					b.Ks = append(b.Ks, k)
					b.Ps = append(b.Ps, x)
				}
			})
			h.sendZ(ctx, h.z+(1<<(h.uStage-1)), tagZBcastU, b)
			h.uStage--
			continue
		}
		ctx.Mark(MarkUDone)
		st.phase = 3
		return
	}
}

// ---- elastic forcing ----

// forceStale implements algorithm for the baseline's staged protocol.
// The baseline maps its phases onto the same three deadlines as the
// proposed algorithm: phase 0 covers every L node stage including the
// pairwise merges between them, phase 1 the inter-grid x bundle wait, and
// phase 2 the staged U sweep.
func (h *base3dRank) forceStale(ctx *runtime.Ctx, phase int) {
	if h.st.phase == 0 {
		h.forceL(ctx)
	}
	// Consume messages a closure just made admissible before declaring the
	// next phase's inputs missing.
	h.drainDeferred(ctx)
	if phase >= 1 && h.st.phase == 1 {
		// The partner grid's x bundle never came: every x value from the
		// unprocessed ancestor nodes reads as missing, so all of this
		// rank's U solves may be stale.
		for _, k := range h.myDiagSns {
			if h.gp.NodeOf[k] <= h.s {
				h.markStale(sweepU, k)
			}
		}
		h.st.phase = 2
		h.uStage = h.s
		h.startU(ctx)
		h.drainDeferred(ctx)
	}
	if phase >= 2 && h.st.phase == 2 {
		h.forceU(ctx)
	}
}

// forceL drives the staged L sweep to completion: each open stage's
// unsolved diagonal rows are solved with their current partial sums, each
// pending inter-grid merge is synthesized as an empty bundle (the
// partner's leftover sums read as zero — every row at or above the merge
// stage is conservatively marked stale), and the stage-advance machinery
// runs as usual so the protocol's own gathers and finishing bundle still
// go out.
func (h *base3dRank) forceL(ctx *runtime.Ctx) {
	st := h.st
	for st.phase == 0 {
		// A stage advance can make early-arrived (deferred) messages for
		// the new stage admissible — real data beats synthesized zeros.
		h.drainDeferred(ctx)
		if st.phase != 0 {
			return
		}
		if h.lAwaitMerge {
			for _, k := range h.myDiagSns {
				if h.gp.NodeOf[k] > h.lStage {
					h.markStale(sweepL, k)
				}
			}
			h.nextLStage(ctx)
			continue
		}
		for _, k := range h.myDiagSns {
			if h.gp.NodeOf[k] == h.lStage && st.sol[sweepL].get(k) == nil {
				h.markStale(sweepL, k)
				h.zeroPending(sweepL, k)
				h.enqueue(sweepL, k)
			}
		}
		h.remaining[sweepL][h.lStage] = 0
		h.drainReady(ctx, h, sweepL)
		h.advanceL(ctx)
	}
}

// forceU closes the staged U sweep: unsolved diagonal rows of this grid's
// nodes solve with their current partial sums and every stage budget is
// dropped, so advanceU runs the stages down — still emitting the pairwise
// x bundles partner grids may be waiting for.
func (h *base3dRank) forceU(ctx *runtime.Ctx) {
	st := h.st
	for _, k := range h.myDiagSns {
		if h.gp.NodeOf[k] <= h.s && st.sol[sweepU].get(k) == nil {
			h.markStale(sweepU, k)
			h.zeroPending(sweepU, k)
			h.enqueue(sweepU, k)
		}
	}
	clear(h.remaining[sweepU])
	h.drainReady(ctx, h, sweepU)
	h.advanceU(ctx)
}

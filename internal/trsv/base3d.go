package trsv

import (
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
}

// groupMsg is a y/x broadcast restricted to one row-node group.
type groupMsg struct {
	K, G int
	W    wirePanel
}

func (h *base3dRank) Done() bool { return h.st.phase == 3 }

func (h *base3dRank) base() *dist.Baseline { return h.gp.Base }

func (h *base3dRank) Init(ctx *runtime.Ctx) {
	bb := h.base()
	h.s = bb.S
	rd := bb.Ranks[h.r2d]
	st := h.st
	st.dpend[sweepL] = slotCounts(st.dpend[sweepL], h.gp.Sns, rd.PendingL)
	st.dpend[sweepU] = slotCounts(st.dpend[sweepU], h.gp.Sns, rd.PendingU)
	st.lRemaining = append(st.lRemaining[:0], rd.LRemaining...)
	st.uRemaining = append(st.uRemaining[:0], rd.URemaining...)

	// Kick off the leaf node.
	for _, k := range h.myDiagSns {
		if h.gp.NodeOf[k] == 0 && h.pendingOf(sweepL, k) == 0 {
			st.enqueueY(k)
		}
	}
	h.drainReadyY(ctx, h)
	h.advanceL(ctx)
	h.drainDeferred(ctx, h)
	h.armElastic(ctx)
}

func (h *base3dRank) OnMessage(ctx *runtime.Ctx, m runtime.Msg) {
	h.dispatch(ctx, m, h)
	h.armElastic(ctx)
}

func (h *base3dRank) accepts(m runtime.Msg) bool {
	st := h.st
	switch m.Tag {
	case tagYBcast:
		return st.phase == 0 && !st.lAwaitMerge && h.gp.NodeOf[m.Data.(*groupMsg).K] == st.lStage
	case tagLReduce:
		return st.phase == 0 && !st.lAwaitMerge && h.gp.NodeOf[m.Data.(*sumMsg).K] == st.lStage
	case tagZGatherL:
		return st.phase == 0 && st.lAwaitMerge && m.Data.(*vecBundle).Step == st.lStage
	case tagZBcastU:
		return st.phase == 1
	case tagXBcast, tagUReduce:
		return st.phase == 2
	}
	panic(&fault.ProtocolError{Rank: h.rank, Tag: m.Tag, Phase: baselinePhase(h.st.phase),
		Msg: fmt.Sprintf("baseline received unexpected tag %d from rank %d", m.Tag, m.Src)})
}

// DeadOnArrival implements runtime.DeadLetterer: the phase and the L-stage
// cursor only advance, so traffic for an earlier phase or a completed
// L-stage parks forever and must not charge wait time.
func (h *base3dRank) DeadOnArrival(m runtime.Msg) bool {
	st := h.st
	if st == nil {
		return true
	}
	switch m.Tag {
	case tagYBcast:
		return st.phase > 0 || (st.phase == 0 && h.gp.NodeOf[m.Data.(*groupMsg).K] < st.lStage)
	case tagLReduce:
		return st.phase > 0 || (st.phase == 0 && h.gp.NodeOf[m.Data.(*sumMsg).K] < st.lStage)
	case tagZGatherL:
		return st.phase > 0 || (st.phase == 0 && m.Data.(*vecBundle).Step < st.lStage)
	case tagZBcastU:
		return st.phase > 1
	case tagXBcast, tagUReduce:
		return st.phase > 2
	}
	return false
}

func (h *base3dRank) process(ctx *runtime.Ctx, m runtime.Msg) {
	st := h.st
	switch m.Tag {
	case tagYBcast:
		d := m.Data.(*groupMsg)
		st.lRemaining[st.lStage]--
		h.applyYGroup(ctx, d.K, d.G, h.unpackPanel(&d.W))
		h.drainReadyY(ctx, h)
		h.advanceL(ctx)
	case tagLReduce:
		d := m.Data.(*sumMsg)
		st.lRemaining[st.lStage]--
		addWire(h.getSum(sweepL, d.K), &d.W)
		h.contribution(ctx, sweepL, d.K, h.base().LReduceNode[d.K])
		h.drainReadyY(ctx, h)
		h.advanceL(ctx)
	case tagZGatherL:
		d := m.Data.(*vecBundle)
		for i, k := range d.Ks {
			addWire(h.getSum(sweepL, k), &d.Ws[i])
		}
		st.lAwaitMerge = false
		st.lStage++
		h.sendGathers(ctx)
		for _, k := range h.myDiagSns {
			if h.gp.NodeOf[k] == st.lStage && h.pendingOf(sweepL, k) == 0 {
				st.enqueueY(k)
			}
		}
		h.drainReadyY(ctx, h)
		h.advanceL(ctx)
	case tagZBcastU:
		d := m.Data.(*vecBundle)
		st.phase = 2
		st.uStage = h.s
		for i, k := range d.Ks {
			st.xl.set(k, h.unpackPanel(&d.Ws[i]))
		}
		for _, k := range d.Ks {
			h.rebroadcastX(ctx, k, st.xl.get(k))
		}
		h.startU(ctx)
	case tagXBcast:
		d := m.Data.(*groupMsg)
		stage := h.gp.NodeOf[d.K]
		if stage > h.s {
			stage = h.s // re-broadcasts are charged to stage s
		}
		st.uRemaining[stage]--
		h.applyXGroup(ctx, d.K, d.G, h.unpackPanel(&d.W))
		h.drainReadyX(ctx, h)
		h.advanceU(ctx)
	case tagUReduce:
		d := m.Data.(*sumMsg)
		st.uRemaining[h.gp.NodeOf[d.K]]--
		addWire(h.getSum(sweepU, d.K), &d.W)
		h.contribution(ctx, sweepU, d.K, h.base().UReduceFlat[d.K])
		h.drainReadyX(ctx, h)
		h.advanceU(ctx)
	}
}

// ---- L phase ----

// applyYGroup applies my column-K blocks whose rows live in node group g.
func (h *base3dRank) applyYGroup(ctx *runtime.Ctx, k, g int, yk *sparse.Panel) {
	for _, blk := range h.colL[k] {
		if h.gp.NodeOf[blk.I] != g {
			continue
		}
		ctx.ComputeT(TagApplyL, h.applyLBlock(blk, k, yk), nil)
		if g == h.gp.NodeOf[k] {
			h.contribution(ctx, sweepL, blk.I, h.base().LReduceNode[blk.I])
		}
	}
}

// keepB implements diagSolver: the baseline always keeps b(K) — its grids
// partition the path nodes, never replicate them.
//
// The baseline's counter templates are per-node-group and live on the
// baseline plan, not the level schedule (Init copies them into slots), and
// its broadcasts walk the plan's per-group trees.
func (h *base3dRank) keepB(int) bool { return true }

// solveY performs one L-phase diagonal solve plus the baseline's
// per-row-node-group broadcasts (diagSolver, driven by the shared drain).
func (h *base3dRank) solveY(ctx *runtime.Ctx, k int) {
	yk, secs := h.solveYPanel(k, true)
	ctx.ComputeT(TagDiagSolveL, secs, nil)
	h.st.sum[sweepL].set(k, nil)
	h.st.y.set(k, yk)
	// One broadcast per row-node group (the baseline's extra messages);
	// the subvector is packed once and shared by every hop.
	wy, ybytes := h.packSend(yk)
	for _, gt := range h.base().LBcastGroups[k] {
		for _, child := range gt.Tree.Children(h.r2d) {
			ctx.Send(runtime.Msg{
				Dst: h.p.GlobalRank(h.z, child), Tag: tagYBcast, Cat: runtime.CatXY,
				Data: &groupMsg{K: k, G: gt.Node, W: wy}, Bytes: ybytes,
			})
		}
	}
	// Apply my own blocks across all groups.
	for _, blk := range h.colL[k] {
		ctx.ComputeT(TagApplyL, h.applyLBlock(blk, k, yk), nil)
		if h.gp.NodeOf[blk.I] == h.gp.NodeOf[k] {
			h.contribution(ctx, sweepL, blk.I, h.base().LReduceNode[blk.I])
		}
	}
}

// sendGathers forwards my accumulated cross-node lsum rows for the new
// current node to their diagonal ranks.
func (h *base3dRank) sendGathers(ctx *runtime.Ctx) {
	st := h.st
	for _, k := range h.gp.Sns {
		if h.gp.NodeOf[k] != st.lStage || k%h.p.Layout.Px != h.row {
			continue
		}
		diagCol := k % h.p.Layout.Py
		if h.col == diagCol || !containsCol(h.base().GatherCols[k], h.col) {
			continue
		}
		s := h.getSum(sweepL, k)
		w, bytes := h.packSend(s)
		ctx.Send(runtime.Msg{
			Dst: h.p.GlobalRank(h.z, h.p.DiagRank2D(k)), Tag: tagLReduce, Cat: runtime.CatXY,
			Data: &sumMsg{K: k, W: w}, Bytes: bytes,
		})
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
	for st.phase == 0 && !st.lAwaitMerge && st.lRemaining[st.lStage] == 0 && len(st.readyY) == 0 {
		if st.lStage < h.s {
			st.lAwaitMerge = true
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
		partner := h.z - (1 << h.s)
		b := h.leftoverBundle()
		ctx.Send(runtime.Msg{
			Dst: h.p.GlobalRank(partner, h.r2d), Tag: tagZGatherL, Cat: runtime.CatZ,
			Data: b, Bytes: b.bytes(),
		})
		st.phase = 1 // await the U bundle
		return
	}
	ctx.Mark(MarkZDone)
	st.phase = 2
	st.uStage = h.s
	h.startU(ctx)
}

// leftoverBundle packs the leftover lsum rows of the unprocessed ancestor
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
			b.Ws = append(b.Ws, packPanel(s))
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
			h.enqueueX(k)
		}
	}
	h.drainReadyX(ctx, h)
	h.advanceU(ctx)
}

// rebroadcastX forwards a bundle-received x(K) (K in an unprocessed node)
// down my grid's group trees and applies my own blocks.
func (h *base3dRank) rebroadcastX(ctx *runtime.Ctx, k int, xk *sparse.Panel) {
	wx, xbytes := h.packSend(xk)
	for _, gt := range h.base().UBcastGroups[k] {
		if gt.Node > h.s {
			continue
		}
		for _, child := range gt.Tree.Children(h.r2d) {
			ctx.Send(runtime.Msg{
				Dst: h.p.GlobalRank(h.z, child), Tag: tagXBcast, Cat: runtime.CatXY,
				Data: &groupMsg{K: k, G: gt.Node, W: wx}, Bytes: xbytes,
			})
		}
	}
	for _, ref := range h.colU[k] {
		if h.gp.NodeOf[ref.I] > h.s {
			continue
		}
		ctx.ComputeT(TagApplyU, h.applyUBlock(ref, k, xk), nil)
		h.contribution(ctx, sweepU, ref.I, h.base().UReduceFlat[ref.I])
	}
}

func (h *base3dRank) applyXGroup(ctx *runtime.Ctx, k, g int, xk *sparse.Panel) {
	for _, ref := range h.colU[k] {
		if h.gp.NodeOf[ref.I] != g {
			continue
		}
		ctx.ComputeT(TagApplyU, h.applyUBlock(ref, k, xk), nil)
		h.contribution(ctx, sweepU, ref.I, h.base().UReduceFlat[ref.I])
	}
}

// solveX performs one U-phase diagonal solve plus the group broadcasts.
func (h *base3dRank) solveX(ctx *runtime.Ctx, k int) {
	xk, secs := h.solveXPanel(k)
	ctx.ComputeT(TagDiagSolveU, secs, nil)
	h.st.xl.set(k, xk)
	if h.gp.OwnerGridOfSn(k) == h.z {
		h.writeX(k, xk)
	}
	wx, xbytes := h.packSend(xk)
	for _, gt := range h.base().UBcastGroups[k] {
		for _, child := range gt.Tree.Children(h.r2d) {
			ctx.Send(runtime.Msg{
				Dst: h.p.GlobalRank(h.z, child), Tag: tagXBcast, Cat: runtime.CatXY,
				Data: &groupMsg{K: k, G: gt.Node, W: wx}, Bytes: xbytes,
			})
		}
	}
	for _, ref := range h.colU[k] {
		ctx.ComputeT(TagApplyU, h.applyUBlock(ref, k, xk), nil)
		h.contribution(ctx, sweepU, ref.I, h.base().UReduceFlat[ref.I])
	}
}

// advanceU retires node stages top-down, sending the pairwise x bundle to
// the grid that resumes at each level.
func (h *base3dRank) advanceU(ctx *runtime.Ctx) {
	st := h.st
	for st.phase == 2 && st.uRemaining[st.uStage] == 0 && len(st.readyX) == 0 {
		if st.uStage >= 1 {
			partner := h.z + (1 << (st.uStage - 1))
			b := &vecBundle{Step: st.uStage}
			st.xl.each(func(k int, x *sparse.Panel) {
				if h.gp.NodeOf[k] >= st.uStage {
					b.Ks = append(b.Ks, k)
					b.Ws = append(b.Ws, packPanel(x))
				}
			})
			ctx.Send(runtime.Msg{
				Dst: h.p.GlobalRank(partner, h.r2d), Tag: tagZBcastU, Cat: runtime.CatZ,
				Data: b, Bytes: b.bytes(),
			})
			st.uStage--
			continue
		}
		ctx.Mark(MarkUDone)
		st.phase = 3
		return
	}
}

// ---- elastic forcing ----

// forceStale implements elasticForcer for the baseline's staged protocol.
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
	h.drainDeferred(ctx, h)
	if phase >= 1 && h.st.phase == 1 {
		// The partner grid's x bundle never came: every x value from the
		// unprocessed ancestor nodes reads as missing, so all of this
		// rank's U solves may be stale.
		for _, k := range h.myDiagSns {
			if h.gp.NodeOf[k] <= h.s {
				h.markStale(sweepU, k)
			}
		}
		st := h.st
		st.phase = 2
		st.uStage = h.s
		h.startU(ctx)
		h.drainDeferred(ctx, h)
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
		h.drainDeferred(ctx, h)
		if st.phase != 0 {
			return
		}
		if st.lAwaitMerge {
			st.lAwaitMerge = false
			st.lStage++
			for _, k := range h.myDiagSns {
				if h.gp.NodeOf[k] >= st.lStage {
					h.markStale(sweepL, k)
				}
			}
			h.sendGathers(ctx)
			for _, k := range h.myDiagSns {
				if h.gp.NodeOf[k] == st.lStage && h.pendingOf(sweepL, k) == 0 {
					st.enqueueY(k)
				}
			}
			h.drainReadyY(ctx, h)
			h.advanceL(ctx)
			continue
		}
		for _, k := range h.myDiagSns {
			if h.gp.NodeOf[k] == st.lStage && st.y.get(k) == nil {
				h.markStale(sweepL, k)
				h.zeroPending(sweepL, k)
				st.enqueueY(k)
			}
		}
		st.lRemaining[st.lStage] = 0
		h.drainReadyY(ctx, h)
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
		if h.gp.NodeOf[k] <= h.s && st.xl.get(k) == nil {
			h.markStale(sweepU, k)
			h.zeroPending(sweepU, k)
			h.enqueueX(k)
		}
	}
	for i := range st.uRemaining {
		st.uRemaining[i] = 0
	}
	h.drainReadyX(ctx, h)
	h.advanceU(ctx)
}

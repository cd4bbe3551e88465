package trsv

import (
	"cmp"
	"fmt"

	"sptrsv/internal/fault"
	"sptrsv/internal/runtime"
)

// arHelper runs the sparse allreduce of Alg. 2 for one rank: a pairwise
// reduce of partial y subvectors toward the smallest grid replicating each
// node, then the mirrored pairwise broadcast. Each rank exchanges with the
// rank holding its own 2D coordinates on the partner grid, so every rank
// sends/receives O(log Pz) bundled messages.
//
// Shared by the CPU and GPU variants of the proposed algorithm; the
// exchanges ride MPI (the paper implements SparseAllReduce with MPI even in
// the GPU code path).
type arHelper struct {
	r        *rankCore
	levels   int // log2(Pz)
	trailing int // trailing zeros of z (grid 0: levels)
	step     int // next reduce step to receive
	done     bool
}

func newARHelper(r *rankCore) arHelper {
	return arHelper{r: r, levels: r.p.Map.L, trailing: trailingZeros(r.z, r.p.Map.L)}
}

// begin starts the allreduce after the L phase; it returns true when the
// allreduce is already complete (Pz=1 or nothing to exchange and z=0 sends
// synchronously). Partial y panels owned by this rank for replicated nodes
// are cloned first: the originals may still be read by L-phase broadcast
// receivers on other ranks.
func (a *arHelper) begin(ctx *runtime.Ctx) bool {
	r := a.r
	if r.p.Layout.Pz == 1 {
		a.done = true
		return true
	}
	for _, k := range r.myDiagSns {
		if r.gp.Path[r.gp.NodeOf[k]].Replicated() {
			r.st.sol[sweepL].set(k, r.clonePanel(r.st.sol[sweepL].get(k)))
		}
	}
	a.advance(ctx)
	return a.done
}

// gateReduce places a reduce bundle of the given step (algorithm.gate):
// early before phase 1 or its step, processable at the step being
// received, dead once the allreduce finished (possibly forced) or the step
// passed — steps only advance.
func (a *arHelper) gateReduce(step int) int {
	switch ph := a.r.st.phase; {
	case ph != 1:
		return cmp.Compare(1, ph)
	case a.done || step < a.step:
		return -1
	case step == a.step && a.step < min(a.trailing, a.levels):
		return 0
	}
	return 1
}

// gateBcast places the broadcast bundle: processable once every reduce
// step is in, dead once the allreduce finished.
func (a *arHelper) gateBcast() int {
	switch ph := a.r.st.phase; {
	case ph != 1:
		return cmp.Compare(1, ph)
	case a.done:
		return -1
	case a.step >= min(a.trailing, a.levels):
		return 0
	}
	return 1
}

// onReduce accumulates a partner's partial subvectors; returns true when
// the whole allreduce has finished for this rank.
func (a *arHelper) onReduce(ctx *runtime.Ctx, b *vecBundle) bool {
	r := a.r
	r.st.counts.arReduce++
	// The merge rides the Z-comm recv in the timing model (zero modeled
	// seconds), but a tagged span makes it visible in traces.
	ctx.ComputeT(TagARMerge, 0, func() {
		for i, k := range b.Ks {
			yk := r.st.sol[sweepL].get(k)
			if yk == nil {
				panic(&fault.ProtocolError{Rank: r.rank, Phase: "allreduce",
					Msg: fmt.Sprintf("allreduce merge for unsolved y(%d)", k)})
			}
			yk.AddFrom(b.Ps[i])
		}
	})
	a.step++
	a.advance(ctx)
	return a.done
}

// onBcast installs the complete subvectors and forwards them downward;
// returns true (the broadcast receipt always completes the allreduce).
func (a *arHelper) onBcast(ctx *runtime.Ctx, b *vecBundle) bool {
	r := a.r
	r.st.counts.arBcast++
	for i, k := range b.Ks {
		r.st.sol[sweepL].set(k, b.Ps[i])
	}
	a.sendBcasts(ctx, a.trailing-1)
	a.done = true
	return true
}

// advance executes the rank's schedule: after all expected reduce receives,
// either forward the reduce buffer up (z≠0) and await the broadcast, or
// start the downward broadcasts (z=0).
func (a *arHelper) advance(ctx *runtime.Ctx) {
	r := a.r
	s := min(a.trailing, a.levels)
	if a.step < s {
		return // waiting for the next reduce bundle
	}
	if r.z != 0 {
		r.sendZ(ctx, r.z-(1<<s), tagARReduce, a.bundle(s, a.levels-s-1))
		return // await tagARBcast
	}
	a.sendBcasts(ctx, a.levels-1)
	a.done = true
}

// bundle collects this rank's owned y subvectors for nodes at tree level ≤
// maxLevel. It sends the live panels: a rank sends its reduce bundle only
// after its last reduce receipt and sends broadcasts only once y is
// final, so no panel is written after it is sent.
func (a *arHelper) bundle(step, maxLevel int) *vecBundle {
	r := a.r
	b := &vecBundle{Step: step}
	for _, k := range r.myDiagSns {
		if r.gp.Path[r.gp.NodeOf[k]].Level <= maxLevel {
			b.Ks = append(b.Ks, k)
			b.Ps = append(b.Ps, r.st.sol[sweepL].get(k))
		}
	}
	return b
}

// force closes the allreduce at a staleness deadline with whatever partial
// sums have arrived. Outstanding reduce steps are skipped (their partner
// contributions read as zero); a rank that had not yet forwarded its
// reduce buffer upward still does so (the partner may still be inside the
// phase and can use the partial bundle), and the downward broadcasts are
// emitted from the current — possibly incomplete — values so the wire
// protocol stays uniform. Receivers that already self-closed defer the
// late bundles harmlessly.
func (a *arHelper) force(ctx *runtime.Ctx) {
	if a.done {
		return
	}
	s := min(a.trailing, a.levels)
	if a.step < s {
		a.step = s
		a.advance(ctx) // z≠0: send the partial up-bundle; z=0: broadcast + done
	}
	if !a.done {
		// Awaiting (or never getting) the downward broadcast: proceed with
		// the local partials and feed our own broadcast subtree.
		a.sendBcasts(ctx, a.trailing-1)
		a.done = true
	}
}

// sendBcasts emits the broadcast-phase bundles for steps from..0.
func (a *arHelper) sendBcasts(ctx *runtime.Ctx, from int) {
	r := a.r
	for l := from; l >= 0; l-- {
		r.sendZ(ctx, r.z+(1<<l), tagARBcast, a.bundle(l, a.levels-l-1))
	}
}

// naiveAR is the strawman inter-grid reduction the paper's §3.2 argues
// against: one MPI_Allreduce-style collective per replicated
// elimination-tree node, executed sequentially from the lowest shared
// level to the root. Each collective is a recursive-doubling butterfly
// over the node's replication set in which *every* rank of the
// participating grids exchanges at every step, whether or not it owns
// data — the latency and synchronization cost the packed sparse allreduce
// (Alg. 2) eliminates.
type naiveAR struct {
	r    *rankCore
	node int // current path node index being reduced (1..L)
	step int // current butterfly step within the node
	done bool
}

func newNaiveAR(r *rankCore) *naiveAR {
	return &naiveAR{r: r, node: 1}
}

// span returns the replication width of path node ni.
func (a *naiveAR) span(ni int) int { return a.r.gp.Path[ni].GridCount }

// steps returns log2(span) for path node ni.
func (a *naiveAR) steps(ni int) int {
	n, s := a.span(ni), 0
	for 1<<s < n {
		s++
	}
	return s
}

// begin clones the mutable panels and starts the first collective.
func (a *naiveAR) begin(ctx *runtime.Ctx) bool {
	r := a.r
	if r.p.Layout.Pz == 1 || len(r.gp.Path) <= 1 {
		a.done = true
		return true
	}
	for _, k := range r.myDiagSns {
		if r.gp.Path[r.gp.NodeOf[k]].Replicated() {
			r.st.sol[sweepL].set(k, r.clonePanel(r.st.sol[sweepL].get(k)))
		}
	}
	a.sendStep(ctx)
	return a.done
}

// partner returns the butterfly partner grid for the current step.
func (a *naiveAR) partner() int {
	return a.r.z ^ (1 << a.step)
}

// bundle collects clones of this rank's owned subvectors of the current
// node (the live panels keep accumulating the partner's partials).
func (a *naiveAR) bundle() *vecBundle {
	r := a.r
	b := &vecBundle{Step: a.node<<8 | a.step}
	for _, k := range r.myDiagSns {
		if r.gp.NodeOf[k] == a.node {
			b.Ks = append(b.Ks, k)
			b.Ps = append(b.Ps, r.clonePanel(r.st.sol[sweepL].get(k)))
		}
	}
	return b
}

// sendStep emits this rank's half of the current exchange.
func (a *naiveAR) sendStep(ctx *runtime.Ctx) {
	a.r.sendZ(ctx, a.partner(), tagNaiveARUp, a.bundle())
}

// gate admits only the exchange of the current (node, step); every other
// bundle waits, never dead.
func (a *naiveAR) gate(step int) int {
	if !a.done && step == a.node<<8|a.step {
		return 0
	}
	return 1
}

// onMsg combines the partner's partials and advances the schedule; returns
// true when the whole reduction has finished.
func (a *naiveAR) onMsg(ctx *runtime.Ctx, m runtime.Msg) bool {
	r := a.r
	r.st.counts.naiveRounds++
	d := m.Data.(*vecBundle)
	ctx.ComputeT(TagARMerge, 0, func() {
		for i, k := range d.Ks {
			r.st.sol[sweepL].get(k).AddFrom(d.Ps[i])
		}
	})
	a.step++
	if a.step >= a.steps(a.node) {
		a.node++
		a.step = 0
		if a.node >= len(r.gp.Path) {
			a.done = true
			return true
		}
	}
	a.sendStep(ctx)
	return false
}

// force skips every remaining exchange of the strawman reduction at a
// staleness deadline: each skipped step treats the partner's bundle as
// zero but still emits this rank's half of the next exchange, so partners
// that are still inside the phase receive everything the protocol owes
// them.
func (a *naiveAR) force(ctx *runtime.Ctx) {
	r := a.r
	for !a.done {
		a.step++
		if a.step >= a.steps(a.node) {
			a.node++
			a.step = 0
			if a.node >= len(r.gp.Path) {
				a.done = true
				return
			}
		}
		a.sendStep(ctx)
	}
}

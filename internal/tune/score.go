package tune

import (
	"math"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/grid"
	"sptrsv/internal/trsv"
)

// snStats caches per-supernode structural quantities of one System —
// everything the analytic pre-score needs, extracted once per Run and
// shared by all candidates. Flop counts are per right-hand side.
type snStats struct {
	width []int     // supernode widths
	nL    []int     // off-diagonal L block count in column K
	nU    []int     // off-diagonal U block count in row K
	flops []float64 // GEMV/GEMM + diagonal-apply flops of supernode K, nrhs=1
}

func newSnStats(sys *core.System) *snStats {
	m := sys.SN
	st := &snStats{
		width: make([]int, m.SnCount),
		nL:    make([]int, m.SnCount),
		nU:    make([]int, m.SnCount),
		flops: make([]float64, m.SnCount),
	}
	for k := 0; k < m.SnCount; k++ {
		w := m.SnWidth(k)
		st.width[k] = w
		st.nL[k] = len(m.LBlocks[k])
		st.nU[k] = len(m.UBlocks[k])
		// Two diagonal-inverse applies (L and U) plus the off-diagonal
		// GEMVs on both sides.
		f := 4 * float64(w) * float64(w)
		for _, blk := range m.LBlocks[k] {
			f += 2 * float64(len(blk.Rows)) * float64(w)
		}
		for _, blk := range m.UBlocks[k] {
			f += 2 * float64(w) * float64(len(blk.Cols))
		}
		st.flops[k] = f
	}
	return st
}

// hops returns the serialized hop count of a broadcast/reduction tree of
// the given kind over n participants: a flat root sends n−1 messages back
// to back; a binary tree pays its depth. Mirrors ctree's Auto threshold.
func hops(kind ctree.Kind, n int) float64 {
	if n <= 1 {
		return 0
	}
	if kind == ctree.Auto {
		kind = ctree.Flat
		if n > 16 {
			kind = ctree.Binary
		}
	}
	if kind == ctree.Flat {
		return float64(n - 1)
	}
	return math.Ceil(math.Log2(float64(n + 1)))
}

// preScore is the cheap analytic stage-one cost of a candidate: an
// α·messages + β·bytes + flops model evaluated per grid over the grid's
// leaf-to-root path, taking the maximum over grids and adding the
// inter-grid (Z) term. It exists only to rank candidates for pruning —
// the surviving top-k are re-ranked by real DES probe solves — so it
// models trends (replication cost, tree fan-out, GPU task overhead, the
// allreduce vs. level-by-level sync gap), not absolute times.
func preScore(sys *core.System, st *snStats, cfg core.Config, nrhs int) float64 {
	l := cfg.Layout
	m := cfg.Machine
	mapping, err := grid.NewMapping(sys.Tree, l.Pz)
	if err != nil {
		return math.Inf(1)
	}
	sn := sys.SN
	gridRanks := float64(l.GridSize())
	fNRHS := float64(nrhs)

	gpu := cfg.Algorithm == trsv.GPUSingle || cfg.Algorithm == trsv.GPUMulti
	worst := 0.0
	for z := 0; z < l.Pz; z++ {
		var total float64
		for _, nd := range mapping.Path(z) {
			if nd.Begin == nd.End {
				continue
			}
			lo := sn.ColToSn[nd.Begin]
			hi := sn.ColToSn[nd.End-1] + 1
			for k := lo; k < hi; k++ {
				w := float64(st.width[k])
				bytes := 8 * w * fNRHS
				flops := st.flops[k] * fNRHS
				if gpu {
					// One thread-block task per supernode, its row work
					// split over the Px GPUs of the grid.
					g := m.GPU
					total += g.TaskTime(flops/float64(l.Px), 8*flops/(2*fNRHS))
					if cfg.Algorithm == trsv.GPUMulti && l.Px > 1 {
						// One-sided puts along the broadcast trees.
						put := g.PutAlphaIntra + bytes/g.PutBWIntra
						if l.Px > g.GPUsPerNode {
							put = g.PutAlphaInter + bytes/g.PutBWInter
						}
						nb := hops(cfg.Trees, min(l.Px, st.nL[k]+1)) +
							hops(cfg.Trees, min(l.Px, st.nU[k]+1))
						total += nb * put
					}
					continue
				}
				// CPU: roofline block work spread over the 2D grid plus the
				// serialized broadcast/reduction chain of the supernode.
				t := flops / m.CPUFlops
				if bt := 8 * flops / (2 * fNRHS) / m.CPUMemBW; bt > t {
					t = bt
				}
				t += m.BlockOverhead * float64(st.nL[k]+st.nU[k]+2)
				total += t / gridRanks
				msg := m.SendOverhead + m.RecvOverhead + m.AlphaIntra + m.BetaIntra*bytes
				nhops := hops(cfg.Trees, min(l.Px, st.nL[k]+1)) + // y(K) down the column
					hops(cfg.Trees, min(l.Py, st.nL[k]+1)) + // lsum(K) across the row
					hops(cfg.Trees, min(l.Px, st.nL[k]+1)) + // x(K) down the column
					hops(cfg.Trees, min(l.Py, st.nU[k]+1)) // usum(K) across the row
				total += nhops * msg
			}
		}
		if total > worst {
			worst = total
		}
	}

	// Inter-grid (Z) synchronization term.
	if l.Pz > 1 {
		logPz := math.Log2(float64(l.Pz))
		// Bytes of the replicated (above-leaf) part of the solution.
		anc := 0.0
		for _, nd := range mapping.Path(0) {
			if nd.Level < mapping.L {
				anc += float64(nd.End-nd.Begin) * 8 * fNRHS
			}
		}
		alpha, beta := m.AlphaInter, m.BetaInter
		switch cfg.Algorithm {
		case trsv.Baseline3D:
			// O(log Pz) level synchronizations, each a blocking exchange.
			worst += 2 * logPz * (alpha + m.SendOverhead + m.RecvOverhead + beta*anc)
		default:
			// One sparse allreduce: pairwise reduce + broadcast.
			worst += logPz * (alpha + m.SendOverhead + m.RecvOverhead + beta*anc)
		}
	}
	return worst
}

// Package machine provides analytic performance models of the three
// systems in the paper's evaluation — Cori Haswell, Perlmutter (A100), and
// Crusher (MI250X) — for the discrete-event backend.
//
// The models are deliberately simple: an α + β·bytes network with distinct
// intra-/inter-node links, a roofline (max of flop-rate and memory-bandwidth
// terms) for dense block operations, and a small set of GPU parameters (SM
// count, per-thread-block overhead, one-sided put costs with the NVLink vs.
// network bandwidth cliff). The figures the reproduction targets depend on
// crossovers between these terms, not on absolute accuracy; EXPERIMENTS.md
// records how the modeled shapes compare to the paper's.
package machine

import "sptrsv/internal/runtime"

// GPU holds the accelerator parameters used by the GPU execution model.
type GPU struct {
	SMs          int     // concurrently schedulable thread blocks (Alg. 5 limit)
	Flops        float64 // per-GPU peak FP64 flop/s
	MemBW        float64 // HBM bandwidth, bytes/s
	TaskOverhead float64 // per-thread-block schedule/spin overhead, s
	GPUsPerNode  int

	// One-sided (NVSHMEM-style) put costs between GPUs.
	PutAlphaIntra float64 // s, same node (NVLink)
	PutAlphaInter float64 // s, across nodes
	PutBWIntra    float64 // bytes/s, NVLink
	PutBWInter    float64 // bytes/s, inter-node fabric per GPU
}

// Model describes one machine for the simulator.
type Model struct {
	Name         string
	RanksPerNode int

	// MPI point-to-point parameters.
	SendOverhead float64 // sender CPU time per message
	RecvOverhead float64 // receiver CPU time per message
	AlphaIntra   float64 // latency, same node
	AlphaInter   float64 // latency, across nodes
	BetaIntra    float64 // s/byte, same node
	BetaInter    float64 // s/byte, across nodes

	// Per-rank CPU block-operation parameters.
	CPUFlops      float64 // flop/s
	CPUMemBW      float64 // bytes/s
	BlockOverhead float64 // per block operation, s

	GPU *GPU
}

// Network adapts the model's MPI parameters to the simulator. Ranks are
// mapped to nodes contiguously: node = rank / RanksPerNode.
type Network struct {
	m *Model
}

// Net returns the model's MPI network.
func (m *Model) Net() runtime.Network { return Network{m: m} }

// Cost implements runtime.Network.
func (n Network) Cost(src, dst, bytes int) (float64, float64, float64) {
	m := n.m
	if src/m.RanksPerNode == dst/m.RanksPerNode {
		return m.SendOverhead, m.AlphaIntra + m.BetaIntra*float64(bytes), m.RecvOverhead
	}
	return m.SendOverhead, m.AlphaInter + m.BetaInter*float64(bytes), m.RecvOverhead
}

// GemmTime models one CPU dense block operation C += A·B with A of shape
// rows×k and B of k×nrhs: a roofline over the flop and memory terms plus a
// fixed per-block overhead. With nrhs=1 it is the memory-bound GEMV of the
// paper's §2.1; at nrhs=50 the flop term grows and arithmetic intensity
// improves, matching the paper's GEMM discussion.
func (m *Model) GemmTime(rows, k, nrhs int) float64 {
	flops := 2 * float64(rows) * float64(k) * float64(nrhs)
	bytes := 8 * (float64(rows)*float64(k) + float64(k)*float64(nrhs) + 2*float64(rows)*float64(nrhs))
	t := flops / m.CPUFlops
	if bt := bytes / m.CPUMemBW; bt > t {
		t = bt
	}
	return t + m.BlockOverhead
}

// TaskTime models one GPU thread-block task executing the given flop and
// byte volume on a single SM's share of the GPU.
func (g *GPU) TaskTime(flops, bytes float64) float64 {
	perSMFlops := g.Flops / float64(g.SMs)
	perSMBW := g.MemBW / float64(g.SMs)
	t := flops / perSMFlops
	if bt := bytes / perSMBW; bt > t {
		t = bt
	}
	return t + g.TaskOverhead
}

// PutCost returns the one-sided put latency between two GPUs identified by
// global GPU index (node = gpu / GPUsPerNode).
func (g *GPU) PutCost(src, dst int, bytes int) float64 {
	if src/g.GPUsPerNode == dst/g.GPUsPerNode {
		return g.PutAlphaIntra + float64(bytes)/g.PutBWIntra
	}
	return g.PutAlphaInter + float64(bytes)/g.PutBWInter
}

// CoriHaswell models the Cray XC40 partition used for Figs. 4–8: 32-core
// Xeon E5-2698v3 dual-socket nodes (one MPI rank per core, as in the
// paper), Aries interconnect.
func CoriHaswell() *Model {
	return &Model{
		Name:          "cori-haswell",
		RanksPerNode:  32,
		SendOverhead:  1.0e-6,
		RecvOverhead:  1.8e-6,
		AlphaIntra:    1.2e-6,
		AlphaInter:    2.8e-6,
		BetaIntra:     1.0 / 3.0e9,
		BetaInter:     1.0 / 1.2e9, // per-rank share of the Aries NIC
		CPUFlops:      8.0e9,
		CPUMemBW:      4.0e9, // 128 GB/s node / 32 ranks
		BlockOverhead: 0.25e-6,
	}
}

// PerlmutterCPU models solve-on-CPU runs on Perlmutter GPU nodes (EPYC
// 7763): the CPU reference curves of Figs. 10–11.
func PerlmutterCPU() *Model {
	return &Model{
		Name:          "perlmutter-cpu",
		RanksPerNode:  64,
		SendOverhead:  0.5e-6,
		RecvOverhead:  0.6e-6,
		AlphaIntra:    0.9e-6,
		AlphaInter:    2.2e-6,
		BetaIntra:     1.0 / 4.0e9,
		BetaInter:     1.0 / 1.6e9,
		CPUFlops:      16.0e9,
		CPUMemBW:      3.2e9, // 204 GB/s node / 64 ranks
		BlockOverhead: 0.2e-6,
	}
}

// PerlmutterGPU models the A100 partition (Figs. 10–11): 4 GPUs per node,
// NVLink3 inside a node, Slingshot 11 (≈25 GB/s node, ≈12.5 GB/s per GPU
// direction under the paper's §4.2.2 discussion) across nodes.
func PerlmutterGPU() *Model {
	m := PerlmutterCPU()
	m.Name = "perlmutter-gpu"
	// One MPI rank per GPU: 4 ranks per node for the MPI (Z-comm) part.
	m.RanksPerNode = 4
	m.GPU = &GPU{
		SMs:           108,
		Flops:         9.7e12,
		MemBW:         1.55e12,
		TaskOverhead:  2.5e-6,
		GPUsPerNode:   4,
		PutAlphaIntra: 1.8e-6,
		PutAlphaInter: 3.5e-6,
		PutBWIntra:    250e9,
		PutBWInter:    12.5e9,
	}
	return m
}

// CrusherCPU models solve-on-CPU runs on Crusher nodes (EPYC 7A53): the
// CPU reference curves of Fig. 9.
func CrusherCPU() *Model {
	return &Model{
		Name:          "crusher-cpu",
		RanksPerNode:  64,
		SendOverhead:  0.5e-6,
		RecvOverhead:  0.6e-6,
		AlphaIntra:    1.0e-6,
		AlphaInter:    2.4e-6,
		BetaIntra:     1.0 / 4.0e9,
		BetaInter:     1.0 / 1.6e9,
		CPUFlops:      12.0e9,
		CPUMemBW:      3.2e9,
		BlockOverhead: 0.2e-6,
	}
}

// CrusherGPU models one MI250X Graphics Compute Die per rank (Fig. 9).
// Crusher runs use Px=Py=1 only (ROC-SHMEM lacks subcommunicator support,
// paper §3.4), so no put parameters are exercised; the higher per-task
// overhead reproduces the lower CPU→GPU speedups the paper observed on
// Crusher relative to Perlmutter.
func CrusherGPU() *Model {
	m := CrusherCPU()
	m.Name = "crusher-gpu"
	m.RanksPerNode = 8 // 8 GCDs per node
	m.GPU = &GPU{
		SMs:           110,
		Flops:         23.9e12,
		MemBW:         1.6e12,
		TaskOverhead:  7.0e-6,
		GPUsPerNode:   8,
		PutAlphaIntra: 2.5e-6,
		PutAlphaInter: 5.0e-6,
		PutBWIntra:    200e9,
		PutBWInter:    12.5e9,
	}
	return m
}

// Names lists the built-in model names Lookup accepts, in a stable order.
func Names() []string {
	return []string{"cori-haswell", "perlmutter-cpu", "perlmutter-gpu", "crusher-cpu", "crusher-gpu"}
}

// Lookup returns a model by its Name field; ok is false for unknown names.
// Request paths (the solve service, flag parsing) use Lookup so a bad name
// is an error to report, not a panic.
func Lookup(name string) (*Model, bool) {
	switch name {
	case "cori-haswell":
		return CoriHaswell(), true
	case "perlmutter-cpu":
		return PerlmutterCPU(), true
	case "perlmutter-gpu":
		return PerlmutterGPU(), true
	case "crusher-cpu":
		return CrusherCPU(), true
	case "crusher-gpu":
		return CrusherGPU(), true
	}
	return nil, false
}

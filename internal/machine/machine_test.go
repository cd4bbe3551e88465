package machine

import "testing"

func TestNetworkIntraVsInter(t *testing.T) {
	m := CoriHaswell()
	net := m.Net()
	_, latIntra, _ := net.Cost(0, 1, 1000)
	_, latInter, _ := net.Cost(0, 32, 1000)
	if latIntra >= latInter {
		t.Fatalf("intra-node latency %g should be below inter-node %g", latIntra, latInter)
	}
	// Same node boundary check: ranks 31 and 32 are on different nodes.
	_, a, _ := net.Cost(31, 32, 0)
	_, b, _ := net.Cost(32, 33, 0)
	if a != m.AlphaInter || b != m.AlphaIntra {
		t.Fatal("node boundary wrong")
	}
}

func TestGemmTimeMonotonic(t *testing.T) {
	m := CoriHaswell()
	small := m.GemmTime(10, 10, 1)
	big := m.GemmTime(100, 10, 1)
	multi := m.GemmTime(100, 10, 50)
	if small <= m.BlockOverhead {
		t.Fatal("GemmTime lost overhead")
	}
	if big <= small || multi <= big {
		t.Fatalf("GemmTime not monotonic: %g %g %g", small, big, multi)
	}
	// 50 RHS must cost far less than 50× one RHS (GEMM efficiency).
	if multi >= 50*big {
		t.Fatalf("no GEMM reuse: %g vs %g", multi, 50*big)
	}
}

func TestGemvMemoryBound(t *testing.T) {
	// With nrhs=1 the memory term dominates for any reasonable model.
	m := PerlmutterCPU()
	rows, k := 200, 40
	bytes := 8 * float64(rows*k+k+2*rows)
	want := bytes/m.CPUMemBW + m.BlockOverhead
	if got := m.GemmTime(rows, k, 1); got != want {
		t.Fatalf("GemvTime %g, want memory-bound %g", got, want)
	}
}

func TestGPUTaskTime(t *testing.T) {
	g := PerlmutterGPU().GPU
	tSmall := g.TaskTime(0, 0)
	if tSmall != g.TaskOverhead {
		t.Fatal("empty task should cost the overhead")
	}
	if g.TaskTime(1e6, 8e5) <= tSmall {
		t.Fatal("task time not increasing")
	}
}

func TestGPUPutBandwidthCliff(t *testing.T) {
	g := PerlmutterGPU().GPU
	intra := g.PutCost(0, 3, 1<<20)
	inter := g.PutCost(0, 4, 1<<20)
	if inter < 5*intra {
		t.Fatalf("inter-node put %g should be much slower than intra %g", inter, intra)
	}
}

func TestCrusherOverheadAbovePerlmutter(t *testing.T) {
	// The model encodes the paper's observation that Crusher GPU speedups
	// are lower: higher per-task overhead.
	if CrusherGPU().GPU.TaskOverhead <= PerlmutterGPU().GPU.TaskOverhead {
		t.Fatal("Crusher should model higher per-task overhead")
	}
}

func TestLookup(t *testing.T) {
	for _, name := range []string{"cori-haswell", "perlmutter-cpu", "perlmutter-gpu", "crusher-cpu", "crusher-gpu"} {
		if m, ok := Lookup(name); !ok || m.Name != name {
			t.Fatalf("Lookup(%q) = %v, %v", name, m, ok)
		}
	}
	if m, ok := Lookup("nope"); ok || m != nil {
		t.Fatalf("Lookup(\"nope\") = %v, %v; want nil, false", m, ok)
	}
}

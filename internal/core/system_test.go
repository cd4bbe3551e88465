package core

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"sptrsv/internal/gen"
	"sptrsv/internal/sparse"
)

// TestDepthCapKeepsFactorBitIdentical: recording the separator tree to
// depth 20 yields the factor that the capped depth ⌈log2 n⌉ yields, bit
// for bit, so the cap Resolve applies changes no solve.
func TestDepthCapKeepsFactorBitIdentical(t *testing.T) {
	for _, nx := range []int{6, 32, 64} {
		a := gen.S2D9pt(nx, nx, 1)
		capped, err := Factorize(a, FactorOptions{TreeDepth: 20})
		if err != nil {
			t.Fatal(err)
		}
		opt, _ := FactorOptions{}.Resolve(a.N)
		opt.TreeDepth = 20 // past the cap, as Factorize ran before it
		deep, err := factorize(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		if capped.Tree.Depth >= deep.Tree.Depth {
			t.Fatalf("%dx%d: capped depth %d, uncapped %d", nx, nx, capped.Tree.Depth, deep.Tree.Depth)
		}
		switch {
		case !slices.Equal(capped.Perm, deep.Perm):
			t.Fatalf("%dx%d: Perm differs", nx, nx)
		case !slices.Equal(capped.SN.SnBegin, deep.SN.SnBegin):
			t.Fatalf("%dx%d: SnBegin differs", nx, nx)
		case !slices.Equal(capped.SN.Store.Idx, deep.SN.Store.Idx):
			t.Fatalf("%dx%d: Store.Idx differs", nx, nx)
		case !bitsEqual(capped.SN.Store.Vals, deep.SN.Store.Vals):
			t.Fatalf("%dx%d: Store.Vals differ", nx, nx)
		case capped.NNZFactors() != deep.NNZFactors():
			t.Fatalf("%dx%d: nnz(LU) %d vs %d", nx, nx, capped.NNZFactors(), deep.NNZFactors())
		}
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestSystemHeapPinnedToBlockStore: a System retains little beyond its
// block store; the column-form factors and the symbolic fill pattern are
// gone once Factorize returns. Not parallel: it reads the process heap.
func TestSystemHeapPinnedToBlockStore(t *testing.T) {
	a := gen.S2D9pt(64, 64, 1)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	retained, store := int64(math.MaxInt64), 0
	for range 3 {
		before := heap()
		sys, err := Factorize(a, FactorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		retained = min(retained, int64(heap())-int64(before))
		st := &sys.SN.Store
		store = 8*cap(st.Vals) + 8*cap(st.Idx) + int(unsafe.Sizeof(sparse.Panel{}))*cap(st.Panels)
		runtime.KeepAlive(sys)
	}
	ratio := float64(retained) / float64(store)
	t.Logf("System retains %.2f MB, block store %.2f MB (%.2f×)", float64(retained)/1e6, float64(store)/1e6, ratio)
	if ratio > 2.0 {
		t.Fatalf("System retains %.2f× its block store's bytes, want ≤ 2.0×", ratio)
	}
}

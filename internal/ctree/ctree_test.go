package ctree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func members(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * 3 // arbitrary non-contiguous ranks
	}
	return out
}

func TestTreeSpansAllRanksOnce(t *testing.T) {
	check := func(seed int64, kindBit bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		ms := members(n)
		root := ms[rng.Intn(n)]
		kind := Flat
		if kindBit {
			kind = Binary
		}
		tr, err := New(kind, root, ms)
		if err != nil {
			return false
		}
		// BFS from root must reach each member exactly once.
		seen := map[int]bool{root: true}
		queue := []int{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, c := range tr.Children(v) {
				if seen[c] {
					return false // duplicate delivery
				}
				seen[c] = true
				queue = append(queue, c)
			}
		}
		if len(seen) != n {
			return false
		}
		// Parent/child consistency.
		for _, m := range ms {
			for _, c := range tr.Children(m) {
				if tr.Parent(c) != m {
					return false
				}
			}
			if tr.NumChildren(m) != len(tr.Children(m)) {
				return false
			}
		}
		// RootChildren is the root's Children, as a view.
		if want, got := tr.Children(root), tr.RootChildren(); len(got) != len(want) {
			return false
		} else {
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return tr.Parent(root) == -1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryDepthLogarithmic(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 15, 16, 100} {
		tr, err := New(Binary, 0, members(n))
		if err != nil {
			t.Fatal(err)
		}
		// A binary heap of n nodes has depth floor(log2(n)).
		want := 0
		for v := 1; v < n; v = v*2 + 1 {
			want++
		}
		if d := tr.Depth(); d > want+1 || (n > 2 && d >= n-1) {
			t.Fatalf("n=%d: depth %d", n, d)
		}
	}
}

func TestFlatShape(t *testing.T) {
	tr, err := New(Flat, 6, members(5))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 1 {
		t.Fatalf("flat depth %d", tr.Depth())
	}
	if len(tr.Children(6)) != 4 {
		t.Fatalf("flat root children %v", tr.Children(6))
	}
	for _, m := range members(5) {
		if m != 6 && len(tr.Children(m)) != 0 {
			t.Fatal("flat non-root has children")
		}
	}
}

func TestBinaryMaxTwoChildren(t *testing.T) {
	tr, err := New(Binary, 0, members(33))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members(33) {
		if n := tr.NumChildren(m); n > 2 {
			t.Fatalf("rank %d has %d children", m, n)
		}
	}
}

func TestRootNotMemberRejected(t *testing.T) {
	if _, err := New(Binary, 99, members(4)); err == nil {
		t.Fatal("root outside members accepted")
	}
}

func TestDuplicateMemberRejected(t *testing.T) {
	if _, err := New(Binary, 1, []int{1, 2, 2}); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestSingletonTree(t *testing.T) {
	tr, err := New(Binary, 5, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 0 || tr.Parent(5) != -1 || len(tr.Children(5)) != 0 {
		t.Fatal("singleton tree malformed")
	}
	if !tr.Contains(5) || tr.Contains(4) {
		t.Fatal("Contains wrong")
	}
}

func TestAutoKindSelection(t *testing.T) {
	small, err := New(Auto, 0, members(5))
	if err != nil {
		t.Fatal(err)
	}
	if small.Depth() != 1 {
		t.Fatalf("auto with 5 members should be flat, depth=%d", small.Depth())
	}
	big, err := New(Auto, 0, members(40))
	if err != nil {
		t.Fatal(err)
	}
	if big.Depth() >= 39 || big.NumChildren(0) > 2 {
		t.Fatal("auto with 40 members should be binary")
	}
}

// Package ctree builds the per-supernode broadcast and reduction
// communication trees of Liu et al. (CSC '18), the intra-grid latency
// optimization the paper integrates in §3.3.
//
// A tree spans the set of ranks participating in one supernode column's
// broadcast (of y(K)) or one supernode row's reduction (of lsum(K)). The
// optimized form is a binary heap over the participants; the baseline
// ("flat") form has the root sending to — or receiving from — every other
// participant directly, which is what the un-optimized 2D and baseline 3D
// solvers do.
package ctree

import "fmt"

// Kind selects the tree shape.
type Kind int

const (
	// Flat: root connects directly to all other participants. O(P) root
	// messages, depth 1.
	Flat Kind = iota
	// Binary: participants form a binary heap rooted at the root rank.
	// O(log P) depth, every rank sends at most two messages.
	Binary
	// Auto selects Flat for small participant sets and Binary beyond
	// autoThreshold participants: flat trees have lower depth-latency,
	// binary trees avoid root serialization at high fan-out, and the
	// crossover depends only on the participant count.
	Auto
)

// autoThreshold is the participant count at which Auto switches from Flat
// to Binary. Calibrated on the Cori model: below it, the root's send/recv
// serialization is cheaper than the binary tree's hop latency.
const autoThreshold = 16

func (k Kind) String() string {
	switch k {
	case Binary:
		return "binary"
	case Auto:
		return "auto"
	}
	return "flat"
}

// Tree is a communication tree over a fixed participant set. The same
// structure serves broadcasts (messages flow root→leaves) and reductions
// (leaves→root); callers pick the direction. A tree spans one process row
// or column, so its lookups scan the member list; only plan-time code
// queries trees (the solve reads the plan's slot-indexed copies).
type Tree struct {
	kind  Kind
	ranks []int // participants; ranks[0] is the root
}

// New builds a tree over the given participants rooted at root. The
// participant list must contain root and have no duplicates.
func New(kind Kind, root int, members []int) (*Tree, error) {
	if kind == Auto {
		kind = Flat
		if len(members) > autoThreshold {
			kind = Binary
		}
	}
	t := &Tree{kind: kind, ranks: make([]int, 0, len(members))}
	t.ranks = append(t.ranks, root)
	foundRoot := false
	for _, m := range members {
		if m == root {
			foundRoot = true
			continue
		}
		if t.index(m) >= 0 {
			return nil, fmt.Errorf("ctree: duplicate rank %d", m)
		}
		t.ranks = append(t.ranks, m)
	}
	if !foundRoot {
		return nil, fmt.Errorf("ctree: root %d not among members %v", root, members)
	}
	if len(t.ranks) != len(members) {
		return nil, fmt.Errorf("ctree: duplicate rank %d", root)
	}
	return t, nil
}

// index returns rank's position in the member list, or -1.
func (t *Tree) index(rank int) int {
	for i, r := range t.ranks {
		if r == rank {
			return i
		}
	}
	return -1
}

// Root returns the root rank.
func (t *Tree) Root() int { return t.ranks[0] }

// Members returns the participant ranks, root first. Callers must not
// modify the slice.
func (t *Tree) Members() []int { return t.ranks }

// Size returns the number of participants.
func (t *Tree) Size() int { return len(t.ranks) }

// Contains reports whether rank participates in the tree.
func (t *Tree) Contains(rank int) bool { return t.index(rank) >= 0 }

// Children returns the ranks a participant forwards to during a broadcast
// (equivalently, the ranks it receives from during a reduction).
func (t *Tree) Children(rank int) []int {
	i := t.index(rank)
	if i < 0 {
		return nil
	}
	if t.kind == Flat {
		if i != 0 {
			return nil
		}
		out := make([]int, 0, len(t.ranks)-1)
		out = append(out, t.ranks[1:]...)
		return out
	}
	var out []int
	if c := 2*i + 1; c < len(t.ranks) {
		out = append(out, t.ranks[c])
	}
	if c := 2*i + 2; c < len(t.ranks) {
		out = append(out, t.ranks[c])
	}
	return out
}

// RootChildren is Children(Root()) without the allocation and the lookup:
// a view of the member list, which callers must not modify.
func (t *Tree) RootChildren() []int {
	if t.kind == Flat {
		return t.ranks[1:]
	}
	return t.ranks[1:min(3, len(t.ranks))]
}

// Parent returns the rank a participant receives from during a broadcast
// (sends to during a reduction), or -1 at the root.
func (t *Tree) Parent(rank int) int {
	i := t.index(rank)
	if i <= 0 {
		return -1
	}
	if t.kind == Flat {
		return t.ranks[0]
	}
	return t.ranks[(i-1)/2]
}

// NumChildren returns len(Children(rank)) without allocating.
func (t *Tree) NumChildren(rank int) int {
	i := t.index(rank)
	if i < 0 {
		return 0
	}
	if t.kind == Flat {
		if i != 0 {
			return 0
		}
		return len(t.ranks) - 1
	}
	n := 0
	if 2*i+1 < len(t.ranks) {
		n++
	}
	if 2*i+2 < len(t.ranks) {
		n++
	}
	return n
}

// Depth returns the longest root-to-leaf hop count: the latency-critical
// metric the binary trees optimize.
func (t *Tree) Depth() int {
	if len(t.ranks) <= 1 {
		return 0
	}
	if t.kind == Flat {
		return 1
	}
	d := 0
	for i := len(t.ranks) - 1; i > 0; i = (i - 1) / 2 {
		d++
	}
	return d
}

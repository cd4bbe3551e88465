package trsv

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
)

// The engine's bit-exact bar. testdata/engine_goldens.json freezes the
// results of the per-message handler engine that preceded the level-
// scheduled one — solution bits, per-rank DES clocks, total messages and
// bytes — on three matrices × six algorithm/layout cases. The scheduled
// engine reproduced that engine bit for bit; these goldens keep it doing
// so. The byte totals were re-pinned once, when messages stopped packing
// their panels (solutions and clocks did not move). The independent
// numerical reference is the serial snode.Solve, checked alongside.

const goldenFile = "engine_goldens.json"

// engineGolden is one frozen DES result. Floating-point quantities are
// stored as the hex of their IEEE-754 bits so equality is bitwise.
type engineGolden struct {
	Name string `json:"name"`
	// Solution is the FNV-1a 64 hash of the solution's Float64bits,
	// little-endian, in column-major element order.
	Solution string   `json:"solution_fnv64a"`
	Clocks   []string `json:"clock_bits"`
	Msgs     int      `json:"msgs"`
	Bytes    int      `json:"bytes"`
}

// goldenCase is one pinned solve: a plan, an algorithm and a right-hand
// side.
type goldenCase struct {
	name string
	pl   *pipeline
	tc   schedCase
	b    *sparse.Panel
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	mats := schedMatrices(t)
	for _, mname := range []string{"s2d", "rand", "s2d-xl"} {
		pl := mats[mname]
		for _, tc := range schedCases() {
			rng := rand.New(rand.NewSource(300))
			out = append(out, goldenCase{mname + "/" + tc.name, pl, tc, randPanel(rng, pl.m.N, tc.nrhs)})
		}
	}
	return out
}

func goldenOf(name string, x *sparse.Panel, res *runtime.Result) engineGolden {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	g := engineGolden{Name: name, Solution: fmt.Sprintf("%016x", h.Sum64()),
		Msgs: res.TotalMsgs(), Bytes: res.TotalBytes()}
	for _, c := range res.Clocks {
		g.Clocks = append(g.Clocks, fmt.Sprintf("%016x", math.Float64bits(c)))
	}
	return g
}

// TestEngineMatchesGoldens: every algorithm reproduces its frozen DES
// result exactly and stays within 1e-8 of the serial reference.
func TestEngineMatchesGoldens(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	var want []engineGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases := goldenCases(t)
	if len(want) != len(cases) {
		t.Fatalf("%d goldens for %d cases", len(want), len(cases))
	}
	for i, gc := range cases {
		x, res := solveMode(t, gc.pl, gc.tc, gc.b, SimBackend{}, SolveOpts{})
		got, w := goldenOf(gc.name, x, res), want[i]
		if got.Name != w.Name {
			t.Fatalf("case %d is %s, golden is %s", i, got.Name, w.Name)
		}
		if got.Solution != w.Solution {
			t.Errorf("%s: solution hash %s, golden %s", gc.name, got.Solution, w.Solution)
		}
		if fmt.Sprint(got.Clocks) != fmt.Sprint(w.Clocks) {
			t.Errorf("%s: DES clocks %v, golden %v", gc.name, got.Clocks, w.Clocks)
		}
		if got.Msgs != w.Msgs || got.Bytes != w.Bytes {
			t.Errorf("%s: %d msgs / %d B, golden %d / %d", gc.name, got.Msgs, got.Bytes, w.Msgs, w.Bytes)
		}
		if d := x.MaxAbsDiff(gc.pl.m.Solve(gc.b)); d > 1e-8 {
			t.Errorf("%s: off serial reference by %g", gc.name, d)
		}
	}
}

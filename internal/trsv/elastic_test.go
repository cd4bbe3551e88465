package trsv

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sptrsv/internal/ctree"
	"sptrsv/internal/fault"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
)

// elasticCase is one algorithm × layout point of the elastic test sweep —
// the same four algorithm families the chaos harness covers.
type elasticCase struct {
	name  string
	algo  Algorithm
	l     grid.Layout
	kind  ctree.Kind
	model *machine.Model
}

func elasticCases() []elasticCase {
	return []elasticCase{
		{"proposed-3d", Proposed3D, grid.Layout{Px: 2, Py: 2, Pz: 2}, ctree.Binary, machine.CoriHaswell()},
		{"baseline-3d", Baseline3D, grid.Layout{Px: 2, Py: 2, Pz: 2}, ctree.Binary, machine.CoriHaswell()},
		{"gpu-single", GPUSingle, grid.Layout{Px: 1, Py: 1, Pz: 4}, ctree.Auto, machine.PerlmutterGPU()},
		{"gpu-multi", GPUMulti, grid.Layout{Px: 2, Py: 1, Pz: 2}, ctree.Auto, machine.PerlmutterGPU()},
	}
}

// elasticSolve runs one DES solve with the given options and returns the
// solution panel and the run result.
func elasticSolve(t *testing.T, pl *pipeline, ec elasticCase, b *sparse.Panel, opts SolveOpts, plan *fault.Plan) (*sparse.Panel, *runtime.Result) {
	t.Helper()
	p := pl.plan(t, ec.l, ec.kind)
	x := sparse.NewPanel(b.Rows, b.Cols)
	back := SimBackend{Opts: runtime.Options{Faults: plan}}
	res, err := Solve(p, ec.model, ec.algo, back, b, x, opts)
	if err != nil {
		t.Fatalf("%s S=%d: %v", ec.name, opts.Staleness, err)
	}
	return x, res
}

// forcingPlan is a network straggler severe enough to make every elastic
// case force at least one phase at S=4.
func forcingPlan() *fault.Plan {
	return &fault.Plan{Seed: 9, NetDelay: map[int]float64{0: 5e-3}, Jitter: 1e-5}
}

// TestElasticHealthyMatchesStrict pins the stronger fault-free property: a
// genuinely armed elastic run (S>0, ticks flying) on a healthy system never
// reaches a deadline before the dependency arrives, so it forces nothing and
// its solution and clocks still match strict bit-for-bit. Elasticity is
// free when nothing is wrong.
func TestElasticHealthyMatchesStrict(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 15), 3, 8)
	rng := rand.New(rand.NewSource(12))
	b := randPanel(rng, pl.m.N, 1)
	for _, ec := range elasticCases() {
		xs, rs := elasticSolve(t, pl, ec, b, SolveOpts{}, nil)
		cs := rs.Clocks
		for _, s := range []int{4, 16} {
			var stats ElasticStats
			xe, re := elasticSolve(t, pl, ec, b, SolveOpts{Staleness: s, Elastic: &stats}, nil)
			ce := re.Clocks
			if stats.StaleSupernodes != 0 || stats.ForcedTicks != 0 {
				t.Fatalf("%s S=%d: healthy run forced (stale=%d ticks=%d)",
					ec.name, s, stats.StaleSupernodes, stats.ForcedTicks)
			}
			for i, v := range xs.Data {
				if xe.Data[i] != v {
					t.Fatalf("%s S=%d: x[%d] strict %g vs elastic %g", ec.name, s, i, v, xe.Data[i])
				}
			}
			for i, v := range cs {
				if ce[i] != v {
					t.Fatalf("%s S=%d: rank %d clock strict %g vs elastic %g", ec.name, s, i, v, ce[i])
				}
			}
		}
	}
}

// TestElasticDESDeterministic pins the DES guarantee under forcing: two
// same-seed elastic runs under a network straggler severe enough to trigger
// stale reads produce bit-identical solutions, clocks, and stale tallies.
func TestElasticDESDeterministic(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 15), 3, 8)
	rng := rand.New(rand.NewSource(13))
	b := randPanel(rng, pl.m.N, 1)
	for _, ec := range elasticCases() {
		var sa, sb ElasticStats
		xa, ra := elasticSolve(t, pl, ec, b, SolveOpts{Staleness: 4, Elastic: &sa}, forcingPlan())
		xb, rb := elasticSolve(t, pl, ec, b, SolveOpts{Staleness: 4, Elastic: &sb}, forcingPlan())
		ca, cb := ra.Clocks, rb.Clocks
		if sa != sb {
			t.Fatalf("%s: stale stats differ across same-seed runs: %+v vs %+v", ec.name, sa, sb)
		}
		for i, v := range xa.Data {
			if xb.Data[i] != v {
				t.Fatalf("%s: x[%d] %g vs %g across same-seed elastic runs", ec.name, i, v, xb.Data[i])
			}
		}
		for i, v := range ca {
			if cb[i] != v {
				t.Fatalf("%s: rank %d clock %g vs %g across same-seed elastic runs", ec.name, i, v, cb[i])
			}
		}
		t.Logf("%s: stale=%d forced-ticks=%d", ec.name, sa.StaleSupernodes, sa.ForcedTicks)
	}
}

// elasticGolden is one frozen forced-elastic DES result: the strict
// goldens' fields plus what the run forced.
type elasticGolden struct {
	engineGolden
	Stats ElasticStats `json:"elastic_stats"`
}

// TestElasticMatchesGoldens pins the forcing paths bit for bit. The strict
// goldens never force a phase, so they never run the stale marking, the
// counter zeroing, the synthesized GPU puts or the forced allreduce
// closure. testdata/elastic_goldens.json freezes, for each elasticCase
// under TestElasticDESDeterministic's straggler (forcingPlan, S=4), the
// solution hash, per-rank DES clocks, message and byte totals and
// ElasticStats. They were captured before the two GPU handlers and the
// L/U sweep twins of the executor were merged, which reproduces them bit
// for bit.
func TestElasticMatchesGoldens(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "elastic_goldens.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []elasticGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases := elasticCases()
	if len(want) != len(cases) {
		t.Fatalf("%d goldens for %d cases", len(want), len(cases))
	}
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 15), 3, 8)
	rng := rand.New(rand.NewSource(13))
	b := randPanel(rng, pl.m.N, 1)
	for i, ec := range cases {
		var stats ElasticStats
		x, res := elasticSolve(t, pl, ec, b, SolveOpts{Staleness: 4, Elastic: &stats}, forcingPlan())
		got, w := elasticGolden{goldenOf(ec.name, x, res), stats}, want[i]
		if got.Name != w.Name {
			t.Fatalf("case %d is %s, golden is %s", i, got.Name, w.Name)
		}
		if stats.StaleSupernodes == 0 || stats.ForcedTicks == 0 {
			t.Errorf("%s: nothing forced (%+v)", ec.name, stats)
		}
		if got.Stats != w.Stats {
			t.Errorf("%s: elastic stats %+v, golden %+v", ec.name, got.Stats, w.Stats)
		}
		if got.Solution != w.Solution {
			t.Errorf("%s: solution hash %s, golden %s", ec.name, got.Solution, w.Solution)
		}
		if fmt.Sprint(got.Clocks) != fmt.Sprint(w.Clocks) {
			t.Errorf("%s: DES clocks %v, golden %v", ec.name, got.Clocks, w.Clocks)
		}
		if got.Msgs != w.Msgs || got.Bytes != w.Bytes {
			t.Errorf("%s: %d msgs / %d B, golden %d / %d", ec.name, got.Msgs, got.Bytes, w.Msgs, w.Bytes)
		}
	}
}

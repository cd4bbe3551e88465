package trsv

import (
	"encoding/json"
	"errors"
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
// for bit; only the byte totals were re-pinned, when messages stopped
// packing their panels.
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

// deadLetterProbe decorates a rank's algorithm to check the dead-letter
// contract of runtime.DeadLetterer: a message whose gate was negative once
// — at the engine's arrival check or on any deferral pass — never reaches
// process.
type deadLetterProbe struct {
	algorithm
	dead   map[deadLetter]bool
	broken int // dead messages processed anyway
}

// deadLetter identifies one delivery: payload records are per send, so
// source, tag and record tell messages to one rank apart.
type deadLetter struct {
	src, tag int
	data     any
}

func (p *deadLetterProbe) gate(m runtime.Msg) int {
	g := p.algorithm.gate(m)
	if g < 0 {
		p.dead[deadLetter{m.Src, m.Tag, m.Data}] = true
	}
	return g
}

func (p *deadLetterProbe) process(ctx *runtime.Ctx, m runtime.Msg) {
	if p.dead[deadLetter{m.Src, m.Tag, m.Data}] {
		p.broken++
	}
	p.algorithm.process(ctx, m)
}

// deferralAudit runs a rank's shell and, after every dispatch, counts the
// deferred messages whose gate is negative: a dead letter must be dropped
// at the gate, not parked.
type deferralAudit struct {
	*rankCore
	gate   func(runtime.Msg) int // the undecorated gate
	parked *int
}

func (a deferralAudit) OnMessage(ctx *runtime.Ctx, m runtime.Msg) {
	a.rankCore.OnMessage(ctx, m)
	for _, d := range a.st.deferred {
		if a.gate(d) < 0 {
			*a.parked++
		}
	}
}

// TestElasticDeadLettersNeverProcessed runs the forced configurations of
// elastic_goldens.json with every rank's gate observed: the DES skips the
// wait charge of a dead-on-arrival message on the promise that its gate
// never reopens, so no message classified dead may be processed later, and
// none may wait in the deferral queue after a dispatch.
func TestElasticDeadLettersNeverProcessed(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 15), 3, 8)
	b := randPanel(rand.New(rand.NewSource(13)), pl.m.N, 1)
	for _, ec := range elasticCases() {
		var probes []*deadLetterProbe
		parked := 0
		cs, err := runRanks(t, pl.plan(t, ec.l, ec.kind), ec.model, ec.algo,
			SimBackend{Opts: runtime.Options{Faults: forcingPlan()}}, b, SolveOpts{Staleness: 4},
			func(c *rankCore) runtime.Handler {
				p := &deadLetterProbe{algorithm: c.alg, dead: map[deadLetter]bool{}}
				probes = append(probes, p)
				c.alg = p
				return deferralAudit{rankCore: c, gate: p.algorithm.gate, parked: &parked}
			})
		forced := 0
		for _, c := range cs {
			forced += c.st.counts.forcedTicks
		}
		releaseRanks(cs)
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		if forced == 0 {
			t.Fatalf("%s: nothing forced — the case is vacuous", ec.name)
		}
		dead := 0
		for _, p := range probes {
			dead += len(p.dead)
			if p.broken > 0 {
				t.Errorf("%s: %d dead-on-arrival messages were processed", ec.name, p.broken)
			}
		}
		if dead == 0 {
			t.Fatalf("%s: no message was dead on arrival — the case is vacuous", ec.name)
		}
		if parked > 0 {
			t.Errorf("%s: dead letters left in the deferral queue %d times after a dispatch", ec.name, parked)
		}
		t.Logf("%s: %d forced ticks, %d dead letters", ec.name, forced, dead)
	}
}

// unknownTagProbe decorates rank 0's algorithm to open with a message to
// rank 1 whose tag no algorithm knows.
type unknownTagProbe struct{ algorithm }

func (u unknownTagProbe) start(ctx *runtime.Ctx) {
	ctx.Send(runtime.Msg{Dst: 1, Tag: 999})
	u.algorithm.start(ctx)
}

// TestFaultUnknownTagElasticDES: on an elastic run the DES classifies each
// delivery through the receiver's gate before OnMessage sees it. A tag no
// gate knows must fail the run with a typed protocol error there, not
// crash the process.
func TestFaultUnknownTagElasticDES(t *testing.T) {
	pl := buildPipeline(t, gen.S2D9pt(16, 16, 15), 3, 8)
	b := randPanel(rand.New(rand.NewSource(13)), pl.m.N, 1)
	for _, ec := range elasticCases() {
		cs, err := runRanks(t, pl.plan(t, ec.l, ec.kind), ec.model, ec.algo, SimBackend{}, b,
			SolveOpts{Staleness: 4}, func(c *rankCore) runtime.Handler {
				if c.rank == 0 {
					c.alg = unknownTagProbe{c.alg}
				}
				return nil
			})
		releaseRanks(cs)
		var pe *fault.ProtocolError
		if !errors.As(err, &pe) || pe.Rank != 1 || pe.Tag != 999 {
			t.Fatalf("%s: got %v (%T), want a protocol error for tag 999 on rank 1", ec.name, err, err)
		}
	}
}

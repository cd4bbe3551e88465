package core

import (
	"math"
	"strings"
	"testing"

	"sptrsv/internal/ctree"
	"sptrsv/internal/fault"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// TestElasticReportAndMetrics pins the observability contract of an elastic
// solve end to end: under a straggler that forces stale reads, the report
// carries the refinement outcome (passes, stale supernodes, verified
// residual), a strict solve of the same plan carries none of it, and the
// three elastic metric families move on the default registry.
func TestElasticReportAndMetrics(t *testing.T) {
	sys := testSystem(t)
	base := Config{
		Layout: grid.Layout{Px: 2, Py: 2, Pz: 2}, Algorithm: trsv.Proposed3D,
		Trees: ctree.Binary, Machine: machine.CoriHaswell(),
		Backend: trsv.SimBackend{Opts: runtime.Options{Faults: &fault.Plan{Seed: 3, NetDelay: map[int]float64{0: 5e-3}}}},
	}
	b := sparse.NewPanel(sys.A.N, 1)
	for i := range b.Data {
		b.Data[i] = 1 + float64(i%5)/5
	}

	// Strict reference: the report must not claim any elastic activity, and
	// Residual stays NaN — strict solves do not self-verify.
	ss, err := NewSolver(sys, base)
	if err != nil {
		t.Fatal(err)
	}
	_, srep, err := ss.Solve(b)
	if err != nil {
		t.Fatalf("strict: %v", err)
	}
	if srep.RefinePasses != 0 || srep.StaleSupernodes != 0 || srep.ForcedTicks != 0 {
		t.Fatalf("strict report claims elastic activity: %+v", srep)
	}
	if !math.IsNaN(srep.Residual) {
		t.Fatalf("strict report residual %g, want NaN (unverified)", srep.Residual)
	}

	cfg := base
	cfg.Staleness = 4
	es, err := NewSolver(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := scrapeSeries(t)
	x, rep, err := es.Solve(b)
	if err != nil {
		t.Fatalf("elastic: %v", err)
	}
	if rep.StaleSupernodes == 0 || rep.RefinePasses == 0 {
		t.Fatalf("straggler forced nothing (stale=%d refine=%d) — test is vacuous",
			rep.StaleSupernodes, rep.RefinePasses)
	}
	if !(rep.Residual <= 1e-8) {
		t.Fatalf("refined residual %g above default tolerance", rep.Residual)
	}
	if r := es.Residual(x, b); !(r <= 1e-8) {
		t.Fatalf("independently recomputed residual %g disagrees with report %g", r, rep.Residual)
	}

	after := scrapeSeries(t)
	delta := seriesDelta(after, before)
	for _, want := range []string{"sptrsv_refine_passes", "sptrsv_trsv_stale_supernodes"} {
		found := false
		for k := range delta {
			if strings.HasPrefix(k, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s series moved during a forced elastic solve", want)
		}
	}
	// The residual gauge is deterministic across runs (same Set value), so a
	// repeat run's delta is legitimately zero — check the published value.
	found := false
	for k, v := range after {
		if strings.HasPrefix(k, "sptrsv_core_refined_residual") {
			found = true
			if v != rep.Residual {
				t.Errorf("gauge %s = %g, report says %g", k, v, rep.Residual)
			}
		}
	}
	if !found {
		t.Errorf("no sptrsv_core_refined_residual series published")
	}
}

package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sptrsv/internal/fault"
	"sptrsv/internal/runtime"
	"sptrsv/internal/trsv"
)

// TestSolveElasticOptInAndSlotIsolation pins the per-request elastic
// contract on a healthy server: a request that opts in with a positive
// config.staleness gets a refinement-verified answer that is bit-identical
// to the strict default (healthy elastic forces nothing), and the elastic
// slot never shares a solver or coalescer with the strict one.
func TestSolveElasticOptInAndSlotIsolation(t *testing.T) {
	s, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	for i := range b {
		b[i] = 1 + float64(i%13)/7
	}

	resp, data := postJSON(t, ts.URL+"/v1/matrices/"+info.Handle+"/solve",
		map[string]any{"b": b}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("strict solve: %d: %s", resp.StatusCode, data)
	}
	var strict solveResponse
	json.Unmarshal(data, &strict)

	resp, data = postJSON(t, ts.URL+"/v1/matrices/"+info.Handle+"/solve",
		map[string]any{"b": b, "config": map[string]any{"staleness": 8}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("elastic solve: %d: %s", resp.StatusCode, data)
	}
	var elastic solveResponse
	json.Unmarshal(data, &elastic)

	if !strings.Contains(elastic.Config, "elastic:S=8") {
		t.Fatalf("elastic config key %q does not carry the mode group", elastic.Config)
	}
	if elastic.Config == strict.Config {
		t.Fatalf("strict and elastic solves share config key %q", strict.Config)
	}
	h, _ := s.handles.get(info.Handle, s.clock.Now())
	if got := len(h.Configs()); got != 2 {
		t.Fatalf("handle has %d configs (%v), want separate strict and elastic slots", got, h.Configs())
	}
	// Healthy elastic == strict, bit for bit; the elastic response still
	// carries the refinement-verified residual.
	for i := range strict.X {
		if elastic.X[i] != strict.X[i] {
			t.Fatalf("x[%d] = %v elastic, %v strict — healthy elastic must be bit-identical", i, elastic.X[i], strict.X[i])
		}
	}
	if elastic.RefinePasses != 0 || elastic.StaleSupernodes != 0 {
		t.Fatalf("healthy elastic solve reports refine=%d stale=%d", elastic.RefinePasses, elastic.StaleSupernodes)
	}
	if !(elastic.Residual <= 1e-8) || elastic.Residual <= 0 {
		t.Fatalf("elastic response residual %g, want verified in (0, 1e-8]", elastic.Residual)
	}
	if strict.Residual != 0 {
		t.Fatalf("strict response carries residual %g, want omitted", strict.Residual)
	}
}

// TestSolveElasticValidation pins the request-level vocabulary: negative
// staleness and refinement bounds are client errors, not server faults.
func TestSolveElasticValidation(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	solveURL := ts.URL + "/v1/matrices/" + info.Handle + "/solve"
	b := make([]float64, info.N)

	for _, bad := range []map[string]any{
		{"staleness": -1},
		{"staleness": 4, "refine_tol": -1e-9},
		{"staleness": 4, "refine_max": -1},
	} {
		resp, data := postJSON(t, solveURL, map[string]any{"b": b, "config": bad}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("config %v: %d: %s", bad, resp.StatusCode, data)
		}
	}
}

// TestSolveStalenessZeroOptsOut pins the per-request opt-out on a server
// whose default is elastic: a request without a config runs elastic, and
// {"staleness":0} runs strict on its own slot.
func TestSolveStalenessZeroOptsOut(t *testing.T) {
	_, _, ts := newHTTPServer(t, func(o *Options) { o.Staleness = 4 })
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	solveURL := ts.URL + "/v1/matrices/" + info.Handle + "/solve"
	b := make([]float64, info.N)
	for i := range b {
		b[i] = 1
	}
	for _, tc := range []struct {
		body map[string]any
		key  string
	}{
		{map[string]any{"b": b}, "|elastic:S=4:tol=0:max=0"},
		{map[string]any{"b": b, "config": map[string]any{"staleness": 0}}, "|strict"},
	} {
		resp, data := postJSON(t, solveURL, tc.body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: %d: %s", tc.body["config"], resp.StatusCode, data)
		}
		var sr solveResponse
		json.Unmarshal(data, &sr)
		if !strings.HasSuffix(sr.Config, tc.key) {
			t.Fatalf("%v: config key %q, want suffix %q", tc.body["config"], sr.Config, tc.key)
		}
		if elastic := sr.Residual > 0; elastic != (tc.key != "|strict") {
			t.Fatalf("%v: residual %g on config %q", tc.body["config"], sr.Residual, sr.Config)
		}
	}
}

// TestSolveElasticOnlyConfigKeepsTunedPlan: on an autotuning server, a
// request whose config names only its elastic group edits the handle's
// tuned configuration; it must not fall back to the square default layout.
func TestSolveElasticOnlyConfigKeepsTunedPlan(t *testing.T) {
	_, _, ts := newHTTPServer(t, func(o *Options) { o.Ranks, o.Tune = 16, true })
	info := uploadGenerated(t, ts.URL, "nlpkkt", "small")
	solveURL := ts.URL + "/v1/matrices/" + info.Handle + "/solve"
	b := make([]float64, info.N)
	for i := range b {
		b[i] = 1
	}
	var keys []string
	for _, body := range []map[string]any{
		{"b": b},
		{"b": b, "config": map[string]any{"staleness": 0}},
	} {
		resp, data := postJSON(t, solveURL, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: %d: %s", body["config"], resp.StatusCode, data)
		}
		var sr solveResponse
		json.Unmarshal(data, &sr)
		keys = append(keys, sr.Config)
	}
	if keys[0] != keys[1] {
		t.Fatalf(`{"staleness":0} ran %q, the tuned default is %q`, keys[1], keys[0])
	}
}

// TestSolveElasticForcedRefinement serves through a backend with an
// injected network straggler: the elastic request must come back verified
// with the refinement stats populated, while the same server still answers
// strict requests (slowly, but correctly).
func TestSolveElasticForcedRefinement(t *testing.T) {
	_, _, ts := newHTTPServer(t, func(o *Options) {
		o.Backend = trsv.SimBackend{Opts: runtime.Options{
			Faults: &fault.Plan{Seed: 3, NetDelay: map[int]float64{0: 5e-3}},
		}}
	})
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	for i := range b {
		b[i] = 1 + float64(i%13)/7
	}
	resp, data := postJSON(t, ts.URL+"/v1/matrices/"+info.Handle+"/solve",
		map[string]any{"b": b, "config": map[string]any{"staleness": 4}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("elastic solve under straggler: %d: %s", resp.StatusCode, data)
	}
	var sr solveResponse
	json.Unmarshal(data, &sr)
	if sr.StaleSupernodes == 0 || sr.RefinePasses == 0 {
		t.Fatalf("straggler forced nothing over HTTP (stale=%d refine=%d) — test is vacuous",
			sr.StaleSupernodes, sr.RefinePasses)
	}
	if !(sr.Residual <= 1e-8) || sr.Residual <= 0 {
		t.Fatalf("refined residual %g, want verified in (0, 1e-8]", sr.Residual)
	}
}

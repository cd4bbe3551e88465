package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/metrics"
	"sptrsv/internal/mtx"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// newHTTPServer builds a Server (fake clock, private registry unless the
// mod overrides) and mounts it on an httptest server.
func newHTTPServer(t *testing.T, mod func(*Options)) (*Server, *FakeClock, *httptest.Server) {
	t.Helper()
	fc := NewFakeClock()
	opts := Options{
		Ranks:    4,
		MaxBatch: 1, // flush each request immediately unless a test opts out
		MaxWait:  10 * time.Millisecond,
		Clock:    fc,
		Registry: metrics.NewRegistry(),
	}
	if mod != nil {
		mod(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, fc, ts
}

func postJSON(t *testing.T, url string, body any, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func uploadGenerated(t *testing.T, base, name, scale string) matrixInfo {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/matrices", map[string]any{
		"generate": map[string]string{"name": name, "scale": scale},
	}, nil)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload %s: status %d: %s", name, resp.StatusCode, data)
	}
	var info matrixInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("upload response: %v", err)
	}
	return info
}

func TestUploadGenerateDedupAndInspect(t *testing.T) {
	s, _, ts := newHTTPServer(t, nil)

	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	if info.Handle == "" || info.N != 1024 || info.Reused {
		t.Fatalf("first upload: %+v", info)
	}
	again := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	if again.Handle != info.Handle || !again.Reused {
		t.Fatalf("re-upload did not reuse: %+v", again)
	}
	if s.Handles() != 1 {
		t.Fatalf("handle count = %d, want 1", s.Handles())
	}

	resp, data := get(t, ts.URL+"/v1/matrices/"+info.Handle)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET handle: %d: %s", resp.StatusCode, data)
	}
	resp, data = get(t, ts.URL+"/v1/matrices")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), info.Handle) {
		t.Fatalf("list: %d: %s", resp.StatusCode, data)
	}

	resp, _ = get(t, ts.URL+"/v1/matrices/m-nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown handle: %d, want 404", resp.StatusCode)
	}

	// An unknown scale is a client error; an omitted one means medium.
	resp, data = postJSON(t, ts.URL+"/v1/matrices", map[string]any{
		"generate": map[string]string{"name": "gaas", "scale": "smal"},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown scale") {
		t.Fatalf("unknown scale: %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/matrices", map[string]any{
		"generate": map[string]string{"name": "gaas"},
	}, nil)
	var medium matrixInfo
	if err := json.Unmarshal(data, &medium); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("omitted scale: %d: %s", resp.StatusCode, data)
	}
	if want := gen.Named("gaas", gen.Medium).A.N; medium.N != want {
		t.Fatalf("omitted scale solved n=%d, want the medium n=%d", medium.N, want)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func TestUploadMatrixMarketBody(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	var buf bytes.Buffer
	if err := mtx.Write(&buf, gen.S2D9pt(8, 8, 5)); err != nil {
		t.Fatalf("mtx.Write: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", &buf)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mtx upload: %d: %s", resp.StatusCode, data)
	}
	var info matrixInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if info.N != 64 || info.Name != "upload" {
		t.Fatalf("mtx upload info: %+v", info)
	}

	resp2, data2 := postJSONRaw(t, ts.URL+"/v1/matrices", "not a matrix", "text/plain")
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d: %s", resp2.StatusCode, data2)
	}
}

func postJSONRaw(t *testing.T, url, body, ct string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, ct, strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

// TestUploadSamePatternDifferentValues pins the fix for handle aliasing:
// uploading a second matrix with the same sparsity pattern (identical
// structural fingerprint) but different values must produce a fresh
// handle, not reuse the first one.
func TestUploadSamePatternDifferentValues(t *testing.T) {
	s, _, ts := newHTTPServer(t, nil)
	a := gen.S2D9pt(8, 8, 5)
	scaled := *a
	scaled.Val = append([]float64(nil), a.Val...)
	for i := range scaled.Val {
		scaled.Val[i] *= 3
	}

	upload := func(m *sparse.CSR) matrixInfo {
		var buf bytes.Buffer
		if err := mtx.Write(&buf, m); err != nil {
			t.Fatalf("mtx.Write: %v", err)
		}
		resp, err := http.Post(ts.URL+"/v1/matrices", "text/plain", &buf)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload: %d: %s", resp.StatusCode, data)
		}
		var info matrixInfo
		if err := json.Unmarshal(data, &info); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return info
	}
	first := upload(a)
	second := upload(&scaled)
	if first.Handle == second.Handle {
		t.Fatalf("different matrices share handle %s", first.Handle)
	}
	if second.Reused {
		t.Fatal("second upload reported reused")
	}
	if s.Handles() != 2 {
		t.Fatalf("handle count = %d, want 2", s.Handles())
	}

	// Each handle answers with its own matrix: x from the scaled system is
	// the unscaled solution divided by 3 (up to roundoff), never equal.
	b := make([]float64, first.N)
	for i := range b {
		b[i] = 1
	}
	solve := func(handle string) []float64 {
		resp, data := postJSON(t, ts.URL+"/v1/matrices/"+handle+"/solve", map[string]any{"b": b}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %s: %d: %s", handle, resp.StatusCode, data)
		}
		var sr solveResponse
		json.Unmarshal(data, &sr)
		return sr.X
	}
	x1, x2 := solve(first.Handle), solve(second.Handle)
	same := true
	for i := range x1 {
		if x1[i] != x2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("solves against distinct matrices returned identical solutions")
	}
}

// TestUploadJSONContentTypeWithCharset: "application/json; charset=utf-8"
// (many clients' default) must reach the JSON path, not the Matrix Market
// parser.
func TestUploadJSONContentTypeWithCharset(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	resp, data := postJSONRaw(t, ts.URL+"/v1/matrices",
		`{"generate":{"name":"s2d9pt","scale":"small"}}`, "application/json; charset=utf-8")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload with charset param: %d: %s", resp.StatusCode, data)
	}
	var info matrixInfo
	if err := json.Unmarshal(data, &info); err != nil || info.N != 1024 {
		t.Fatalf("upload response: %v %s", err, data)
	}
}

func TestSolveRoundtripBitIdentical(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")

	b := make([]float64, info.N)
	for i := range b {
		b[i] = 1 + float64(i%13)/7
	}
	resp, data := postJSON(t, ts.URL+"/v1/matrices/"+info.Handle+"/solve",
		map[string]any{"b": b}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d: %s", resp.StatusCode, data)
	}
	var sr solveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sr.BatchWidth != 1 || sr.Tenant != "default" {
		t.Fatalf("solve response meta: %+v", sr)
	}

	// Reference: the same default config solved directly through core.
	m := gen.Named("s2d9pt", gen.Small)
	sys, err := core.Factorize(m.A, core.FactorOptions{})
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	solver, err := core.NewSolver(sys, core.Config{
		Layout:    grid.ForBudget(4, sys.Tree.NumLeaves()),
		Algorithm: trsv.Proposed3D,
		Machine:   machine.CoriHaswell(),
	})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	bp := sparse.NewPanel(info.N, 1)
	copy(bp.Col(0), b)
	want, _, err := solver.Solve(bp)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	wc := want.Col(0)
	if len(sr.X) != len(wc) {
		t.Fatalf("x has %d entries, want %d", len(sr.X), len(wc))
	}
	for i := range wc {
		if sr.X[i] != wc[i] {
			t.Fatalf("x[%d] = %v over HTTP, %v direct", i, sr.X[i], wc[i])
		}
	}
}

// TestDefaultLayoutCapsPzAtLeaves pins the per-handle leaf cap of the
// default layout: on a 2-leaf handle a 4-rank budget becomes 2×1×2, for a
// config-less solve and for one that names only its trees, where an
// uncapped 1×1×4 would be a 400.
func TestDefaultLayoutCapsPzAtLeaves(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	resp, data := postJSONRaw(t, ts.URL+"/v1/matrices",
		`{"generate":{"name":"s2d9pt","scale":"small"},"options":{"tree_depth":1}}`, "application/json")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d: %s", resp.StatusCode, data)
	}
	var info matrixInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("upload response: %v", err)
	}
	b := make([]float64, info.N)
	for i := range b {
		b[i] = 1
	}
	for _, body := range []map[string]any{
		{"b": b},
		{"b": b, "config": map[string]any{"trees": "binary"}},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/matrices/"+info.Handle+"/solve", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve with config %v: %d: %s", body["config"], resp.StatusCode, data)
		}
		var sr solveResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !strings.Contains(sr.Config, "|2x1x2|") {
			t.Fatalf("solve with config %v ran %q, want the 2x1x2 layout", body["config"], sr.Config)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	solveURL := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	resp, data := postJSON(t, solveURL, map[string]any{"b": []float64{1, 2, 3}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short rhs: %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSONRaw(t, solveURL, "{", "application/json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d: %s", resp.StatusCode, data)
	}
	b := make([]float64, info.N)
	resp, data = postJSON(t, solveURL, map[string]any{
		"b": b, "config": map[string]any{"algorithm": "warp-drive"},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad algorithm: %d: %s", resp.StatusCode, data)
	}
	// gpu-single on a CPU machine model is a config the validator rejects.
	resp, data = postJSON(t, solveURL, map[string]any{
		"b": b, "config": map[string]any{"algorithm": "gpu-single", "px": 1, "py": 1, "pz": 1},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config: %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/matrices/m-nope/solve", map[string]any{"b": b}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown handle solve: %d: %s", resp.StatusCode, data)
	}
}

func TestSolveNamedConfigUsesOwnSlot(t *testing.T) {
	s, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	for i := range b {
		b[i] = float64(i + 1)
	}
	resp, data := postJSON(t, ts.URL+"/v1/matrices/"+info.Handle+"/solve", map[string]any{
		"b": b, "config": map[string]any{"algorithm": "baseline", "px": 2, "py": 2, "pz": 1, "trees": "binary"},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named-config solve: %d: %s", resp.StatusCode, data)
	}
	var sr solveResponse
	json.Unmarshal(data, &sr)
	if !strings.Contains(sr.Config, "2x2x1") {
		t.Fatalf("config key %q does not carry the grid", sr.Config)
	}
	// Default solve builds a second slot; both appear on the handle.
	postJSON(t, ts.URL+"/v1/matrices/"+info.Handle+"/solve", map[string]any{"b": b}, nil)
	h, _ := s.handles.get(info.Handle, s.clock.Now())
	if got := len(h.Configs()); got != 2 {
		t.Fatalf("handle has %d configs (%v), want 2", got, h.Configs())
	}
	st := s.Stats()
	if st.SolverMisses != 2 {
		t.Fatalf("solver misses = %v, want 2", st.SolverMisses)
	}
}

func TestSolveQuota429(t *testing.T) {
	_, _, ts := newHTTPServer(t, func(o *Options) {
		o.QuotaRate = 0.5
		o.QuotaBurst = 1
	})
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	solveURL := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	resp, data := postJSON(t, solveURL, map[string]any{"b": b}, map[string]string{"X-Tenant": "acme"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve: %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, solveURL, map[string]any{"b": b}, map[string]string{"X-Tenant": "acme"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota solve: %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er errorResponse
	json.Unmarshal(data, &er)
	if er.RetryAfterS != 2 { // 1 token at 0.5/s
		t.Fatalf("retry_after_s = %v, want 2", er.RetryAfterS)
	}
	// Another tenant has its own bucket.
	resp, data = postJSON(t, solveURL, map[string]any{"b": b}, map[string]string{"X-Tenant": "other"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: %d: %s", resp.StatusCode, data)
	}
}

// TestShedRequestBuildsNoSolver pins admission-before-build: an over-quota
// request naming a never-seen configuration must be shed before any config
// resolution or plan construction, leaving no trace in the handle's slot
// map or the solver cache counters.
func TestShedRequestBuildsNoSolver(t *testing.T) {
	s, _, ts := newHTTPServer(t, func(o *Options) {
		o.QuotaRate = 0.001
		o.QuotaBurst = 1
	})
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	solveURL := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	resp, data := postJSON(t, solveURL, map[string]any{"b": b}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve: %d: %s", resp.StatusCode, data)
	}
	// Over quota now; name a config whose slot does not exist yet.
	resp, data = postJSON(t, solveURL, map[string]any{
		"b": b, "config": map[string]any{"algorithm": "baseline", "px": 2, "py": 2, "pz": 1},
	}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota solve: %d: %s", resp.StatusCode, data)
	}
	h, _ := s.handles.get(info.Handle, s.clock.Now())
	if got := len(h.Configs()); got != 1 {
		t.Fatalf("shed request grew the slot map to %d configs (%v), want 1", got, h.Configs())
	}
	if st := s.Stats(); st.SolverMisses != 1 {
		t.Fatalf("solver misses = %v after shed request, want 1", st.SolverMisses)
	}
}

// TestInvalidConfigReleasesAdmission: a request rejected after admission
// (bad config) must return its queue and inflight slots, or rejected
// requests would clog the bounded queue.
func TestInvalidConfigReleasesAdmission(t *testing.T) {
	s, _, ts := newHTTPServer(t, func(o *Options) { o.MaxQueue = 1 })
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	solveURL := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	for i := 0; i < 3; i++ { // more rejections than queue slots
		resp, data := postJSON(t, solveURL, map[string]any{
			"b": b, "config": map[string]any{"algorithm": "gpu-single", "px": 1, "py": 1, "pz": 1},
		}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid config %d: %d: %s", i, resp.StatusCode, data)
		}
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("queue depth = %d after rejected requests, want 0", d)
	}
	// The released slots still admit a real solve.
	resp, data := postJSON(t, solveURL, map[string]any{"b": b}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after rejections: %d: %s", resp.StatusCode, data)
	}
}

// TestLayoutRankCap: a client cannot force an arbitrarily large plan build
// by naming a huge grid; oversized layouts are rejected before any plan
// construction, including products that would overflow.
func TestLayoutRankCap(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	solveURL := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	for _, layout := range []map[string]any{
		{"px": 100000, "py": 1, "pz": 1},
		{"px": 3037000500, "py": 3037000500, "pz": 1}, // product overflows int64
		{"px": 65, "py": 64, "pz": 1},                 // 4160 > 4096 via the product
	} {
		cfg := map[string]any{"algorithm": "proposed"}
		for k, v := range layout {
			cfg[k] = v
		}
		resp, data := postJSON(t, solveURL, map[string]any{"b": b, "config": cfg}, nil)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "rank cap") {
			t.Fatalf("layout %v: %d: %s", layout, resp.StatusCode, data)
		}
	}
}

// TestInjectedFaultReturns500: a solve failing from injected chaos is a
// server-side failure (500), never a client error.
func TestInjectedFaultReturns500(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	resp, data := postJSON(t, ts.URL+"/v1/matrices/"+info.Handle+"/solve", map[string]any{
		"b": b, "fault": map[string]any{"crash_rank": 1, "crash_at": 0},
	}, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted solve: %d: %s", resp.StatusCode, data)
	}
}

// waitFor spins (yielding) until cond holds; it fails the test if the
// condition never becomes true. No timing assumption — just scheduling.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
		if i%10_000 == 9_999 {
			time.Sleep(time.Millisecond) // let blocked goroutines run under GOMAXPROCS=1
		}
	}
	t.Fatalf("condition never held: %s", what)
}

func TestQueueFullShedsAndShutdownDrains(t *testing.T) {
	s, _, ts := newHTTPServer(t, func(o *Options) {
		o.MaxQueue = 1
		o.MaxBatch = 8
		o.MaxWait = time.Hour // only drain can flush
	})
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	solveURL := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	// First request parks in the coalescer, holding the only queue slot.
	type reply struct {
		code int
		body []byte
	}
	first := make(chan reply, 1)
	go func() {
		resp, data := postJSON(t, solveURL, map[string]any{"b": b}, nil)
		first <- reply{resp.StatusCode, data}
	}()
	waitFor(t, "first request admitted", func() bool { return s.QueueDepth() == 1 })

	resp, data := postJSON(t, solveURL, map[string]any{"b": b}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full solve: %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 429 without Retry-After")
	}

	// Graceful shutdown: the parked request completes, not gets dropped.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-first
	if r.code != http.StatusOK {
		t.Fatalf("parked request after drain: %d: %s", r.code, r.body)
	}

	resp, data = postJSON(t, solveURL, map[string]any{"b": b}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining: %d: %s", resp.StatusCode, data)
	}
	resp, data = get(t, ts.URL+"/healthz")
	if !strings.Contains(string(data), "draining") {
		t.Fatalf("healthz while draining: %s", data)
	}
	st := s.Stats()
	if st.ShedQueueFull != 1 || st.ShedDraining != 1 || st.OK != 1 {
		t.Fatalf("stats = %+v, want 1 queue_full, 1 draining, 1 ok", st)
	}
}

func TestHandleLRUEvictionAndDelete(t *testing.T) {
	s, _, ts := newHTTPServer(t, func(o *Options) { o.MaxHandles = 1 })
	a := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	bInfo := uploadGenerated(t, ts.URL, "gaas", "small")
	if s.Handles() != 1 {
		t.Fatalf("handle count = %d after eviction, want 1", s.Handles())
	}
	resp, _ := get(t, ts.URL+"/v1/matrices/"+a.Handle)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted handle still present: %d", resp.StatusCode)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/matrices/"+bInfo.Handle, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", resp.StatusCode)
	}
	if s.Handles() != 0 {
		t.Fatalf("handle count = %d after delete, want 0", s.Handles())
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("re-delete: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("re-delete: %d, want 404", resp2.StatusCode)
	}
}

func TestMetricsEndpointExposesServerFamilies(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	postJSON(t, ts.URL+"/v1/matrices/"+info.Handle+"/solve", map[string]any{"b": b}, nil)

	resp, data := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"sptrsv_server_batch_width", "sptrsv_server_queue_wait_seconds",
		"sptrsv_server_solve_seconds", "sptrsv_server_requests",
		"sptrsv_server_admission", "sptrsv_server_handle_uploads",
	} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// TestServerStressRace is the -race stress group scripts/check.sh runs:
// concurrent solving clients × /metrics scrapes × handle churn, on the real
// clock so coalescer timers genuinely race max-batch flushes.
func TestServerStressRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	s, _, ts := newHTTPServer(t, func(o *Options) {
		o.Clock = RealClock()
		o.MaxBatch = 4
		o.MaxWait = 200 * time.Microsecond
		o.MaxHandles = 2
	})
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	b := make([]float64, info.N)
	for i := range b {
		b[i] = float64(i%17) + 0.5
	}
	solveURL := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	const clients, perClient = 6, 15
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient+64)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c%3)
			retries := 0
			for i := 0; i < perClient; i++ {
				resp, data := postJSON(t, solveURL, map[string]any{"b": b},
					map[string]string{"X-Tenant": tenant})
				if resp.StatusCode == http.StatusNotFound && retries < 8 {
					// The churn goroutine can evict our handle between two
					// of our lookups (MaxHandles is 2). Real clients
					// re-upload — content-hash identity revives the same
					// handle — and retry the solve.
					retries++
					uploadGenerated(t, ts.URL, "s2d9pt", "small")
					i--
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d solve %d: %d: %s", c, i, resp.StatusCode, data)
					return
				}
			}
		}()
	}
	// Scraper: hammer /metrics and the handle list during the solves.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			get(t, ts.URL+"/metrics")
			get(t, ts.URL+"/v1/matrices")
		}
	}()
	// Churn: upload/evict other handles concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			uploadGenerated(t, ts.URL, "gaas", "small")
			uploadGenerated(t, ts.URL, "s1mat", "small")
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.OK != clients*perClient {
		t.Fatalf("ok = %v, want %d", st.OK, clients*perClient)
	}
}

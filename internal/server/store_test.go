package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/gen"
	"sptrsv/internal/metrics"
	"sptrsv/internal/mtx"
)

// put inserts a system factored directly by a test under the identity of
// its content and recorded tree depth (the supernode cap a System does
// not record counts as the default).
func (c *handleCache) put(sys *core.System, name string, now time.Time) (*Handle, bool, bool) {
	opt, _ := core.FactorOptions{TreeDepth: sys.Tree.Depth}.Resolve(sys.A.N) // a factored depth is in range
	return c.add(HandleID(ContentHash(sys.A), opt), sys, name, now)
}

// uploadRaw posts a JSON upload body and decodes the handle it names.
func uploadRaw(t *testing.T, base, body string, wantCode int) matrixInfo {
	t.Helper()
	resp, data := postJSONRaw(t, base+"/v1/matrices", body, "application/json")
	if resp.StatusCode != wantCode {
		t.Fatalf("upload %s: status %d, want %d: %s", body, resp.StatusCode, wantCode, data)
	}
	var info matrixInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("upload response: %v", err)
	}
	return info
}

// solveDefault runs a config-less solve and returns its configuration key.
func solveDefault(t *testing.T, base string, info matrixInfo) string {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/matrices/"+info.Handle+"/solve",
		map[string]any{"b": make([]float64, info.N)}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default solve on %s: %d: %s", info.Handle, resp.StatusCode, data)
	}
	var sr solveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return sr.Config
}

func deleteHandle(t *testing.T, base, id string) {
	t.Helper()
	req, _ := http.NewRequest("DELETE", base+"/v1/matrices/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete %s: %d, want 204", id, resp.StatusCode)
	}
}

const (
	smallDefault = `{"generate":{"name":"s2d9pt","scale":"small"}}`
	smallDepth1  = `{"generate":{"name":"s2d9pt","scale":"small"},"options":{"tree_depth":1}}`
)

// TestHandleIdentityIncludesFactorOptions: the same content under factor
// options that resolve differently gets two handles, in either upload
// order; options that resolve alike share one, including a tree depth past
// what the matrix can split (s2d9pt small is 32×32, so depth 20 resolves
// to ⌈log2 1024⌉ = 10).
func TestHandleIdentityIncludesFactorOptions(t *testing.T) {
	for _, order := range [][2]string{{smallDefault, smallDepth1}, {smallDepth1, smallDefault}} {
		s, _, ts := newHTTPServer(t, nil)
		first := uploadRaw(t, ts.URL, order[0], http.StatusCreated)
		second := uploadRaw(t, ts.URL, order[1], http.StatusCreated)
		if first.Handle == second.Handle || s.Handles() != 2 {
			t.Fatalf("order %v: handles %s and %s, count %d; want two", order, first.Handle, second.Handle, s.Handles())
		}
		byBody := map[string]matrixInfo{order[0]: first, order[1]: second}
		for body, want := range map[string]string{smallDefault: "depth=6", smallDepth1: "depth=1"} {
			if fp := byBody[body].Fingerprint; !strings.HasSuffix(fp, want) {
				t.Fatalf("order %v: %s got fingerprint %q, want %s", order, body, fp, want)
			}
		}
	}

	s, _, ts := newHTTPServer(t, nil)
	def := uploadRaw(t, ts.URL, smallDefault, http.StatusCreated)
	for _, opts := range []string{`{}`, `{"tree_depth":6}`, `{"max_supernode":48}`, `{"max_supernode":-3}`} {
		got := uploadRaw(t, ts.URL, `{"generate":{"name":"s2d9pt","scale":"small"},"options":`+opts+`}`, http.StatusOK)
		if got.Handle != def.Handle || !got.Reused {
			t.Fatalf("options %s: handle %s reused=%v, want %s reused", opts, got.Handle, got.Reused, def.Handle)
		}
	}
	if s.Handles() != 1 {
		t.Fatalf("handle count = %d, want 1", s.Handles())
	}

	capped := uploadRaw(t, ts.URL, `{"generate":{"name":"s2d9pt","scale":"small"},"options":{"tree_depth":10}}`, http.StatusCreated)
	deep := uploadRaw(t, ts.URL, `{"generate":{"name":"s2d9pt","scale":"small"},"options":{"tree_depth":20}}`, http.StatusOK)
	if deep.Handle != capped.Handle || !deep.Reused || !strings.HasSuffix(deep.Fingerprint, "depth=10") {
		t.Fatalf("depth 20: handle %s reused=%v fingerprint %q, want %s reused at depth=10",
			deep.Handle, deep.Reused, deep.Fingerprint, capped.Handle)
	}
	if s.Handles() != 2 {
		t.Fatalf("handle count = %d, want 2", s.Handles())
	}
}

// TestReuploadSkipsFactorization: an upload whose content and options name
// a handle already held returns it without factorizing. The held identity
// here is that of an all-zero matrix, whose factorization fails at the
// first pivot, so a factorize-then-dedup upload would answer 422.
func TestReuploadSkipsFactorization(t *testing.T) {
	s, fc, ts := newHTTPServer(t, nil)
	a := gen.S2D9pt(8, 8, 5)
	held, err := core.Factorize(a, core.FactorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zero := *a
	zero.Val = make([]float64, len(a.Val))
	var body bytes.Buffer
	if err := mtx.Write(&body, &zero); err != nil {
		t.Fatal(err)
	}
	raw, err := mtx.Read(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	uploaded := raw.SymmetrizePattern() // what the handler identifies
	if _, err := core.Factorize(uploaded, core.FactorOptions{}); err == nil {
		t.Fatal("test premise broken: the all-zero matrix factorizes")
	}
	opt, _ := core.FactorOptions{}.Resolve(uploaded.N)
	h, _, _ := s.handles.add(HandleID(ContentHash(uploaded), opt), held, "held", fc.Now())

	resp, data := postJSONRaw(t, ts.URL+"/v1/matrices", body.String(), "text/plain")
	var info matrixInfo
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &info) != nil || info.Handle != h.ID || !info.Reused {
		t.Fatalf("re-upload: %d: %s; want 200 reused %s", resp.StatusCode, data, h.ID)
	}
}

// TestStaleDefaultDiesWithHandle: a handle's default configuration is
// dropped with the handle, by DELETE or by LRU eviction, so a later upload
// of the same content with a shallower tree gets its own default layout.
func TestStaleDefaultDiesWithHandle(t *testing.T) {
	for _, evict := range []bool{false, true} {
		_, _, ts := newHTTPServer(t, func(o *Options) {
			if evict {
				o.MaxHandles = 1
			}
		})
		def := uploadRaw(t, ts.URL, smallDefault, http.StatusCreated)
		if cfg := solveDefault(t, ts.URL, def); !strings.Contains(cfg, "|1x1x4|") {
			t.Fatalf("evict=%v: default solve ran %q, want 1x1x4", evict, cfg)
		}
		if !evict {
			deleteHandle(t, ts.URL, def.Handle)
		}
		shallow := uploadRaw(t, ts.URL, smallDepth1, http.StatusCreated)
		if cfg := solveDefault(t, ts.URL, shallow); !strings.Contains(cfg, "|2x1x2|") {
			t.Fatalf("evict=%v: re-uploaded default solve ran %q, want 2x1x2", evict, cfg)
		}
		if resp, _ := get(t, ts.URL+"/v1/matrices/"+def.Handle); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("evict=%v: first handle still held: %d", evict, resp.StatusCode)
		}
	}
}

// TestHandleLRUVictimIsLeastRecentlyUsed: beyond capacity the store
// evicts the handle used longest ago, counting lookups as uses.
func TestHandleLRUVictimIsLeastRecentlyUsed(t *testing.T) {
	c := newHandleCache(2)
	base := time.Unix(0, 0)
	var hs []*Handle
	for i := 0; i < 3; i++ {
		sys, err := core.Factorize(gen.S2D9pt(8, 8, int64(i+1)), core.FactorOptions{TreeDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			c.get(hs[0].ID, base.Add(2*time.Second)) // hs[1] is now the LRU handle
		}
		h, reused, evicted := c.put(sys, "m", base.Add(time.Duration(i)*time.Second))
		if reused || evicted != (i == 2) {
			t.Fatalf("put %d: reused=%v evicted=%v", i, reused, evicted)
		}
		hs = append(hs, h)
	}
	if c.len() != 2 {
		t.Fatalf("store holds %d handles, want 2", c.len())
	}
	for i, want := range []bool{true, false, true} {
		if _, ok := c.get(hs[i].ID, base.Add(time.Hour)); ok != want {
			t.Fatalf("handle %d held=%v, want %v", i, ok, want)
		}
	}
}

// TestUploadRejectsOutOfRangeTreeDepth: a tree depth outside 0..20 is a
// 400, not a handler panic, and the server keeps serving uploads.
func TestUploadRejectsOutOfRangeTreeDepth(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	for _, depth := range []string{"-1", "21", "40"} {
		resp, data := postJSONRaw(t, ts.URL+"/v1/matrices",
			`{"generate":{"name":"s2d9pt","scale":"small"},"options":{"tree_depth":`+depth+`}}`, "application/json")
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "tree depth") {
			t.Fatalf("tree_depth %s: %d: %s, want 400", depth, resp.StatusCode, data)
		}
	}
	uploadRaw(t, ts.URL, smallDefault, http.StatusCreated)
}

// TestTuneCacheOutlivesHandle: without a cache directory a tuning server
// still keeps its tuned configs in memory, keyed by structure, so a
// deleted and re-uploaded matrix is served its tuned default without a
// new probe search.
func TestTuneCacheOutlivesHandle(t *testing.T) {
	_, _, ts := newHTTPServer(t, func(o *Options) { o.Tune = true })
	probes := metrics.Default().Counter("sptrsv_tune_probe_solves", "", "machine").With("cori-haswell")

	info := uploadRaw(t, ts.URL, smallDefault, http.StatusCreated)
	before := probes.Value()
	tuned := solveDefault(t, ts.URL, info)
	if probes.Value() == before {
		t.Fatal("first tuned solve ran no probe search")
	}
	deleteHandle(t, ts.URL, info.Handle)
	info = uploadRaw(t, ts.URL, smallDefault, http.StatusCreated)
	before = probes.Value()
	if cfg := solveDefault(t, ts.URL, info); cfg != tuned {
		t.Fatalf("re-uploaded default ran %q, want the tuned %q", cfg, tuned)
	}
	if d := probes.Value() - before; d != 0 {
		t.Fatalf("re-uploaded default solve added %v probe solves, want 0", d)
	}
}

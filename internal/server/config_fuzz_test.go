package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/gen"
	"sptrsv/internal/metrics"
	"sptrsv/internal/trsv"
)

// FuzzSolveConfigDecode feeds arbitrary solve-request bodies through the
// handler's JSON decode and config resolution, against two handles: one
// with the default 64-leaf separator tree and one with 2 leaves, where the
// default layout's Pz is capped below the rank budget. Every input must
// end in a client error (the handler's 400) or in a configuration that
// core.ValidateConfig accepts within the server's rank cap — never in a
// panic — and a request that leaves the layout to the server must resolve
// on both handles or on neither. Seeds live in
// testdata/fuzz/FuzzSolveConfigDecode: retired "mode" payloads, huge and
// negative layouts, negative elastic bounds, out-of-range numbers, and
// configs naming only trees or a machine.
func FuzzSolveConfigDecode(f *testing.F) {
	s, err := New(Options{Ranks: 4, Clock: NewFakeClock(), Registry: metrics.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	var hs []*Handle
	// Distinct seeds give distinct values, so the two systems do not
	// share one content-hashed handle.
	for seed, depth := range []int{0, 1} {
		sys, err := core.Factorize(gen.S2D9pt(8, 8, int64(seed+1)), core.FactorOptions{TreeDepth: depth})
		if err != nil {
			f.Fatal(err)
		}
		h, _, _ := s.handles.put(sys, "fuzz", s.clock.Now())
		hs = append(hs, h)
	}
	if hs[1].sys.Tree.NumLeaves() != 2 {
		f.Fatalf("second handle has %d leaves, want 2", hs[1].sys.Tree.NumLeaves())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req solveRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		var resolved []bool
		for _, h := range hs {
			cfg, err := s.resolveConfig(h, req.Config)
			resolved = append(resolved, err == nil)
			if err != nil {
				continue
			}
			l := cfg.Layout
			if l.Px < 1 || l.Py < 1 || l.Pz < 1 || l.Px > maxLayoutRanks || l.Py > maxLayoutRanks ||
				l.Pz > maxLayoutRanks || l.Size() > maxLayoutRanks {
				t.Fatalf("%q resolved to layout %dx%dx%d, outside the %d-rank cap", body, l.Px, l.Py, l.Pz, maxLayoutRanks)
			}
			if err := core.ValidateConfig(h.sys, cfg); err != nil {
				t.Fatalf("%q on %d leaves resolved to a config ValidateConfig rejects: %v",
					body, h.sys.Tree.NumLeaves(), err)
			}
		}
		if portable(req.Config) && resolved[0] != resolved[1] {
			t.Fatalf("%q resolved on the 64-leaf handle: %v, on the 2-leaf one: %v; the default layout must fit both",
				body, resolved[0], resolved[1])
		}
	})
}

// portable reports whether a request leaves the layout to the server and
// asks for a CPU algorithm, which runs on any layout. Only the default
// layout then differs between handles, so such a request must resolve on
// every handle or on none.
func portable(wc *wireConfig) bool {
	if wc == nil {
		return true
	}
	if wc.Px != 0 || wc.Py != 0 || wc.Pz != 0 {
		return false
	}
	alg, err := cliutil.ParseAlgorithm(wc.Algorithm)
	return err != nil || (alg != trsv.GPUSingle && alg != trsv.GPUMulti)
}

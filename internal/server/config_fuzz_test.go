package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"sptrsv/internal/core"
	"sptrsv/internal/gen"
	"sptrsv/internal/metrics"
)

// FuzzSolveConfigDecode feeds arbitrary solve-request bodies through the
// handler's JSON decode and config resolution. Every input must end in a
// client error (the handler's 400) or in a configuration that
// core.ValidateConfig accepts within the server's rank cap — never in a
// panic. Seeds live in testdata/fuzz/FuzzSolveConfigDecode: retired "mode"
// payloads, huge and negative layouts, negative elastic bounds and
// out-of-range numbers.
func FuzzSolveConfigDecode(f *testing.F) {
	s, err := New(Options{Ranks: 4, Clock: NewFakeClock(), Registry: metrics.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	sys, err := core.Factorize(gen.S2D9pt(8, 8, 1), core.FactorOptions{})
	if err != nil {
		f.Fatal(err)
	}
	h, _, _ := s.handles.put(sys, "fuzz", s.clock.Now())
	f.Fuzz(func(t *testing.T, body []byte) {
		var req solveRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		cfg, err := s.resolveConfig(h, req.Config)
		if err != nil {
			return
		}
		l := cfg.Layout
		if l.Px < 1 || l.Py < 1 || l.Pz < 1 || l.Px > maxLayoutRanks || l.Py > maxLayoutRanks ||
			l.Pz > maxLayoutRanks || l.Size() > maxLayoutRanks {
			t.Fatalf("%q resolved to layout %dx%dx%d, outside the %d-rank cap", body, l.Px, l.Py, l.Pz, maxLayoutRanks)
		}
		if err := core.ValidateConfig(h.sys, cfg); err != nil {
			t.Fatalf("%q resolved to a config ValidateConfig rejects: %v", body, err)
		}
	})
}

package server

import (
	"net/http/httptest"
	"regexp"
	"testing"

	"sptrsv/internal/metrics"
)

// FuzzRequestID sends arbitrary X-Request-ID headers to the solve route.
// The header is echoed verbatim exactly when it matches
// ^[A-Za-z0-9._:-]{1,64}$; any other value gets a server-assigned r-NNNNNN
// ID. The handle does not exist, so each request ends in a 404 after the
// ID is set. Seeds live in testdata/fuzz/FuzzRequestID.
func FuzzRequestID(f *testing.F) {
	s, err := New(Options{Ranks: 4, Clock: NewFakeClock(), Registry: metrics.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9._:-]{1,64}$`)
	assigned := regexp.MustCompile(`^r-[0-9]{6,}$`)
	f.Fuzz(func(t *testing.T, id string) {
		r := httptest.NewRequest("POST", "/v1/matrices/none/solve", nil)
		r.Header.Set("X-Request-ID", id)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		got := w.Header().Get("X-Request-ID")
		if valid.MatchString(id) {
			if got != id {
				t.Fatalf("well-formed ID %q answered as %q", id, got)
			}
		} else if !assigned.MatchString(got) {
			t.Fatalf("malformed ID %q answered as %q, want a server-assigned r-NNNNNN", id, got)
		}
	})
}

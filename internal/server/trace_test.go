package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sptrsv/internal/reqtrace"
)

func solveBody(n int) map[string]any {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)/3
	}
	return map[string]any{"b": b}
}

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	url := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	resp, _ := postJSON(t, url, solveBody(info.N), nil)
	if got := resp.Header.Get("X-Request-ID"); got != "r-000001" {
		t.Fatalf("assigned ID = %q, want r-000001", got)
	}
	resp, _ = postJSON(t, url, solveBody(info.N), map[string]string{"X-Request-ID": "my.req:42"})
	if got := resp.Header.Get("X-Request-ID"); got != "my.req:42" {
		t.Fatalf("client ID not echoed: %q", got)
	}
	// Malformed IDs (spaces, over-long) are replaced, not rejected.
	resp, _ = postJSON(t, url, solveBody(info.N), map[string]string{"X-Request-ID": "has space"})
	if got := resp.Header.Get("X-Request-ID"); got != "r-000002" {
		t.Fatalf("malformed ID not replaced: %q", got)
	}
}

func TestValidRequestID(t *testing.T) {
	for id, want := range map[string]bool{
		"abc":                   true,
		"A-b_c.d:9":             true,
		"":                      false,
		"has space":             false,
		"ütf8":                  false,
		"semi;colon":            false,
		strings.Repeat("x", 64): true,
		strings.Repeat("x", 65): false,
	} {
		if got := validRequestID(id); got != want {
			t.Errorf("validRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestDebugRequestEndToEnd is the tentpole acceptance path: a traced solve
// is retrievable by its request ID — spans at /debug/requests/{id}, a
// captured flight whose download stitches service spans to the per-rank
// runtime trace, and the latency bucket carrying the ID as an exemplar. A
// traced crash is captured as a fault flight with its runtime events and
// lands in the fault-outcome latency buckets.
func TestDebugRequestEndToEnd(t *testing.T) {
	s, _, ts := newHTTPServer(t, func(o *Options) { o.Exemplars = true })
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	url := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	resp, data := postJSON(t, url, solveBody(info.N),
		map[string]string{"X-Request-ID": "probe-1", "X-Trace": "1", "X-Tenant": "acme"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d: %s", resp.StatusCode, data)
	}

	// 1. The record: spans for every stage, attributes, outcome.
	resp, data = get(t, ts.URL+"/debug/requests/probe-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug record: %d: %s", resp.StatusCode, data)
	}
	var rec reqtrace.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record decode: %v", err)
	}
	if rec.Outcome != "ok" || rec.Tenant != "acme" {
		t.Fatalf("record = %+v", rec)
	}
	stages := map[string]bool{}
	for _, sp := range rec.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"decode", "queue-wait", "batch-assembly", "solve", "encode"} {
		if !stages[want] {
			t.Fatalf("record missing %q span; has %v", want, rec.Spans)
		}
	}
	if rec.Attrs["handle"] != info.Handle || rec.Attrs["config"] == "" {
		t.Fatalf("record attrs = %v", rec.Attrs)
	}
	if rec.TraceEvents == 0 {
		t.Fatal("X-Trace solve retained no runtime trace events")
	}

	// 2. The flight: X-Trace forces a request-trigger capture with the
	// runtime result attached; its download is a stitched Chrome trace.
	resp, data = get(t, ts.URL+"/debug/flights")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"probe-1"`) {
		t.Fatalf("flights listing: %d: %s", resp.StatusCode, data)
	}
	resp, data = get(t, ts.URL+"/debug/flights/probe-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight download: %d", resp.StatusCode)
	}
	assertStitchedChromeTrace(t, data, true)

	// 3. The same stitched file from the request-store route.
	resp, data = get(t, ts.URL+"/debug/requests/probe-1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request trace: %d", resp.StatusCode)
	}
	assertStitchedChromeTrace(t, data, true)

	// 4. A first-incident crash sent with X-Trace: the fault trigger wins
	// and the flight still carries the salvaged runtime events.
	crash := solveBody(info.N)
	crash["fault"] = map[string]any{"crash_rank": 1, "crash_at": 0}
	resp, data = postJSON(t, url, crash, map[string]string{"X-Request-ID": "probe-fault", "X-Trace": "1"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("traced crash: %d: %s", resp.StatusCode, data)
	}
	f, ok := s.flights.Get("probe-fault")
	if !ok || f.Trigger != "fault" || f.Events() == 0 {
		t.Fatalf("traced crash flight = %+v (ok=%v), want a fault flight with runtime events", f, ok)
	}

	// 5. The exemplar: the ok-outcome latency bucket names the request,
	// and the crash has its own outcome buckets.
	resp, data = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	okExemplar, faultBucket := false, false
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "sptrsv_server_request_seconds_bucket") {
			continue
		}
		okExemplar = okExemplar || strings.Contains(line, `outcome="ok"`) && strings.Contains(line, `# {request_id="`)
		faultBucket = faultBucket || strings.Contains(line, `outcome="fault"`)
	}
	if !okExemplar {
		t.Fatalf("no request_id exemplar on the ok latency buckets:\n%s", data)
	}
	if !faultBucket {
		t.Fatalf("no fault-outcome latency bucket:\n%s", data)
	}
}

// assertStitchedChromeTrace decodes a Chrome trace file and checks it has
// service-stage spans (pid 1) and, when wantRanks, rank events (pid 0).
func assertStitchedChromeTrace(t *testing.T, data []byte, wantRanks bool) {
	t.Helper()
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("chrome trace decode: %v", err)
	}
	var service, ranks int
	for _, e := range out.TraceEvents {
		if e["ph"] != "X" {
			continue
		}
		switch e["pid"].(float64) {
		case 1:
			service++
		case 0:
			ranks++
		}
	}
	if service == 0 {
		t.Fatal("no service spans in trace file")
	}
	if wantRanks && ranks == 0 {
		t.Fatal("no rank events stitched into trace file")
	}
}

// TestShedRequestsStayInLatencyAccounting pins the satellite fix: a shed
// request lands in the outcome-labeled latency histogram and leaves a
// debug record, instead of vanishing.
func TestShedRequestsStayInLatencyAccounting(t *testing.T) {
	s, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	url := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	s.admit.startDrain()
	resp, _ := postJSON(t, url, solveBody(info.N), map[string]string{"X-Request-ID": "shed-me"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining solve: %d, want 503", resp.StatusCode)
	}
	if n := s.metrics.reqShed.Count(); n != 1 {
		t.Fatalf("shed latency observations = %d, want 1", n)
	}
	rec, ok := s.store.Get("shed-me")
	if !ok || rec.Outcome != "shed" {
		t.Fatalf("shed record = %+v (ok=%v)", rec, ok)
	}
}

// TestFlightCaptureOnFaultAndRearm drives the flight recorder's automatic
// path: a faulted solve captures a spans-only flight and arms the slot, so
// the next incident on the same slot carries a full runtime trace.
func TestFlightCaptureOnFaultAndRearm(t *testing.T) {
	s, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	url := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	fault := solveBody(info.N)
	fault["fault"] = map[string]any{"crash_rank": 1, "crash_at": 0}
	resp, data := postJSON(t, url, fault, map[string]string{"X-Request-ID": "boom-1"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted solve: %d: %s", resp.StatusCode, data)
	}
	f, ok := s.flights.Get("boom-1")
	if !ok || f.Trigger != "fault" {
		t.Fatalf("fault flight = %+v (ok=%v)", f, ok)
	}
	if f.Events() != 0 {
		t.Fatal("first incident was untraced; its flight should be spans-only")
	}

	// The incident armed the slot: the next faulted flush is fully traced.
	fault["fault"] = map[string]any{"crash_rank": 2, "crash_at": 0}
	resp, data = postJSON(t, url, fault, map[string]string{"X-Request-ID": "boom-2"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second faulted solve: %d: %s", resp.StatusCode, data)
	}
	f, ok = s.flights.Get("boom-2")
	if !ok || f.Trigger != "fault" {
		t.Fatalf("second fault flight = %+v (ok=%v)", f, ok)
	}
	if f.Events() == 0 {
		t.Fatal("re-armed slot did not trace the next incident")
	}
	resp, data = get(t, ts.URL+"/debug/flights/boom-2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight download: %d", resp.StatusCode)
	}
	assertStitchedChromeTrace(t, data, true)

	// The faulted record is retrievable and names the failure.
	rec, ok := s.store.Get("boom-2")
	if !ok || rec.Outcome != "fault" || rec.Error == "" {
		t.Fatalf("fault record = %+v (ok=%v)", rec, ok)
	}
}

func TestStatusz(t *testing.T) {
	_, _, ts := newHTTPServer(t, nil)
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	postJSON(t, ts.URL+"/v1/matrices/"+info.Handle+"/solve", solveBody(info.N), nil)

	resp, data := get(t, ts.URL+"/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz: %d: %s", resp.StatusCode, data)
	}
	var st struct {
		Status  string         `json:"status"`
		Handles int            `json:"handles"`
		Stats   map[string]any `json:"stats"`
		Build   map[string]any `json:"build"`
		Runtime map[string]any `json:"runtime"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("statusz decode: %v: %s", err, data)
	}
	if st.Status != "ok" || st.Handles != 1 {
		t.Fatalf("statusz = %+v", st)
	}
	if st.Stats["OK"] != 1.0 {
		t.Fatalf("statusz stats OK = %v, want 1", st.Stats["OK"])
	}
	if st.Build["tune_cache_schema"] == nil || st.Runtime["goroutines"] == nil {
		t.Fatalf("statusz missing build/runtime sections: %s", data)
	}
}

// TestConcurrentTrafficFlightsAndScrape races solve traffic (some traced,
// some faulted), flight captures, metric scrapes, and debug reads — the
// satellite -race test.
func TestConcurrentTrafficFlightsAndScrape(t *testing.T) {
	_, _, ts := newHTTPServer(t, func(o *Options) {
		o.Exemplars = true
		o.MaxBatch = 4
		// Real clock: with MaxBatch > 1 a tail batch narrower than the
		// flush width relies on the max-wait timer, which never fires on
		// the helper's fake clock — the workers would deadlock.
		o.Clock = RealClock()
	})
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	url := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				body := solveBody(info.N)
				hdr := map[string]string{"X-Request-ID": fmt.Sprintf("c%d-%d", w, i)}
				switch i % 3 {
				case 1:
					hdr["X-Trace"] = "1"
				case 2:
					body["fault"] = map[string]any{"crash_rank": 0, "crash_at": 0}
				}
				postJSON(t, url, body, hdr)
			}
		}(w)
	}
	// A bounded scrape loop races the readers against the traffic without
	// hot-spinning the HTTP server.
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for i := 0; i < 20; i++ {
			get(t, ts.URL+"/metrics")
			get(t, ts.URL+"/debug/flights")
			get(t, ts.URL+"/debug/requests")
			get(t, ts.URL+"/statusz")
		}
	}()
	wg.Wait()
	rg.Wait()

	// After the dust settles the exposition still parses strictly.
	_, data := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(data), "sptrsv_server_request_seconds_bucket") {
		t.Fatal("request latency histogram missing from exposition")
	}
}

// TestTraceOffNoFlights pins that with the recorder disabled nothing is
// captured and the solve path stays clean.
func TestTraceOffNoFlights(t *testing.T) {
	s, _, ts := newHTTPServer(t, func(o *Options) { o.FlightCap = -1 })
	info := uploadGenerated(t, ts.URL, "s2d9pt", "small")
	url := ts.URL + "/v1/matrices/" + info.Handle + "/solve"

	fault := solveBody(info.N)
	fault["fault"] = map[string]any{"crash_rank": 1, "crash_at": 0}
	postJSON(t, url, fault, nil)
	if s.flights.Len() != 0 {
		t.Fatalf("disabled recorder captured %d flights", s.flights.Len())
	}
}

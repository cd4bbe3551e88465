// Package reqtrace is the request-scoped tracing layer of the solve
// service: per-request span timelines (queue wait, batch assembly, solve,
// refine, encode), a bounded in-memory store serving GET
// /debug/requests/{id}, a flight recorder retaining full traces of
// anomalous requests (GET /debug/flights), and a rolling-median slow-solve
// detector that triggers automatic capture. It sits between the HTTP
// serving layer (which creates a Ctx per request) and the runtime tracer
// (whose per-rank event traces a captured flight embeds), stitching both
// into one Chrome trace file per request.
//
// Everything here is bounded: the store and recorder are LRU with fixed
// entry caps, and the recorder additionally caps total retained runtime
// trace events, so a misbehaving workload cannot grow service memory
// through its own failures.
package reqtrace

import (
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"sptrsv/internal/runtime"
)

// Span is one stage of a request's journey through the service. Times are
// seconds relative to the request's start, so a record is meaningful
// without knowing the server's clock epoch.
type Span struct {
	Stage  string            `json:"stage"`
	StartS float64           `json:"start_s"`
	DurS   float64           `json:"dur_s"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Ctx accumulates one request's spans and attributes as it moves through
// the service. It is written from both the HTTP handler goroutine and the
// coalescer's flush goroutine, so all mutation is mutex-guarded.
type Ctx struct {
	ID     string
	Tenant string
	Start  time.Time

	mu    sync.Mutex
	spans []Span
	attrs map[string]string
}

// New starts a request context. start anchors every span's relative time.
func New(id, tenant string, start time.Time) *Ctx {
	return &Ctx{ID: id, Tenant: tenant, Start: start}
}

// Span records one completed stage delimited by clock times.
func (c *Ctx) Span(stage string, start, end time.Time, attrs map[string]string) {
	sp := Span{
		Stage:  stage,
		StartS: start.Sub(c.Start).Seconds(),
		DurS:   end.Sub(start).Seconds(),
		Attrs:  attrs,
	}
	c.mu.Lock()
	c.spans = append(c.spans, sp)
	c.mu.Unlock()
}

// SetAttr attaches one request-level attribute (handle, config key, …).
func (c *Ctx) SetAttr(k, v string) {
	c.mu.Lock()
	if c.attrs == nil {
		c.attrs = map[string]string{}
	}
	c.attrs[k] = v
	c.mu.Unlock()
}

// Record is one completed request's summary: what the store serves as JSON
// and what a captured flight embeds. A Ctx can be finished more than once
// (the coalescer snapshots a flight at solve completion, the handler
// finishes the final record after encoding); each Finish returns an
// independent Record.
type Record struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant"`
	Outcome string    `json:"outcome"` // ok | fault | shed | canceled
	Error   string    `json:"error,omitempty"`
	Start   time.Time `json:"start"`
	TotalS  float64   `json:"total_s"`

	BatchWidth   int `json:"batch_width,omitempty"`
	RefinePasses int `json:"refine_passes,omitempty"`

	// TraceEvents and TraceDropped summarize the per-request runtime trace
	// when the solve was traced (0/0 otherwise). The events themselves live
	// in the flight recorder, not here.
	TraceEvents  int `json:"trace_events,omitempty"`
	TraceDropped int `json:"trace_dropped,omitempty"`

	Spans []Span            `json:"spans"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Finish snapshots the context into a Record.
func (c *Ctx) Finish(outcome, errMsg string, end time.Time) *Record {
	c.mu.Lock()
	spans := append([]Span(nil), c.spans...)
	var attrs map[string]string
	if len(c.attrs) > 0 {
		attrs = make(map[string]string, len(c.attrs))
		for k, v := range c.attrs {
			attrs[k] = v
		}
	}
	c.mu.Unlock()
	return &Record{
		ID: c.ID, Tenant: c.Tenant, Outcome: outcome, Error: errMsg,
		Start: c.Start, TotalS: end.Sub(c.Start).Seconds(),
		Spans: spans, Attrs: attrs,
	}
}

// bounded is the insertion-ordered, size-bounded map under Store and
// Recorder: at most maxLen entries and, when maxWeight > 0, at most
// maxWeight total entry weight, evicting its oldest entries until both
// bounds hold. The newest entry is always kept, even when its own weight
// exceeds maxWeight. Re-putting a key replaces its value in place and
// refreshes its position.
type bounded[V any] struct {
	mu        sync.Mutex
	maxLen    int
	maxWeight int
	weight    func(V) int
	curWeight int
	m         map[string]V
	order     []string // oldest first
}

func newBounded[V any](maxLen, maxWeight int, weight func(V) int) *bounded[V] {
	if maxLen <= 0 {
		maxLen = 1
	}
	return &bounded[V]{maxLen: maxLen, maxWeight: maxWeight, weight: weight, m: make(map[string]V)}
}

// put inserts or replaces key's value and returns how many of the oldest
// entries it evicted.
func (b *bounded[V]) put(key string, v V) (evicted int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.m[key]; ok {
		b.curWeight -= b.weight(old)
		b.order = slices.DeleteFunc(b.order, func(k string) bool { return k == key })
	}
	b.m[key] = v
	b.order = append(b.order, key)
	b.curWeight += b.weight(v)
	for len(b.order) > 1 &&
		(len(b.order) > b.maxLen || (b.maxWeight > 0 && b.curWeight > b.maxWeight)) {
		oldest := b.order[0]
		b.curWeight -= b.weight(b.m[oldest])
		delete(b.m, oldest)
		b.order = b.order[1:]
		evicted++
	}
	return evicted
}

func (b *bounded[V]) get(key string) (V, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[key]
	return v, ok
}

// newest returns up to n values, newest first; n <= 0 means all.
func (b *bounded[V]) newest(n int) []V {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= 0 || n > len(b.order) {
		n = len(b.order)
	}
	out := make([]V, 0, n)
	for i := len(b.order) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, b.m[b.order[i]])
	}
	return out
}

func (b *bounded[V]) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.order)
}

func (b *bounded[V]) totalWeight() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.curWeight
}

// Store is the bounded request-record index behind GET /debug/requests: an
// insertion-ordered map evicting its oldest record past cap. Re-adding an
// ID (the handler finalizing a record the coalescer already stored)
// replaces the record in place and refreshes its position.
type Store struct{ idx *bounded[*Record] }

// NewStore returns a store retaining at most cap records (cap <= 0 means 1).
func NewStore(cap int) *Store {
	return &Store{idx: newBounded(cap, 0, func(*Record) int { return 0 })}
}

// Add inserts or replaces r's record.
func (s *Store) Add(r *Record) { s.idx.put(r.ID, r) }

// Get returns the record for id.
func (s *Store) Get(id string) (*Record, bool) { return s.idx.get(id) }

// Recent returns up to n records, newest first.
func (s *Store) Recent(n int) []*Record { return s.idx.newest(n) }

// Len returns the held record count.
func (s *Store) Len() int { return s.idx.len() }

// SlowTracker flags solve durations that blow past the rolling median — the
// flight recorder's "slow solve" trigger. One tracker guards one
// (handle, config) coalescer, so the median reflects that workload alone.
type SlowTracker struct {
	mu     sync.Mutex
	window []float64 // ring of the most recent durations
	n      int       // filled entries
	next   int       // ring write cursor
	factor float64
	minObs int
}

// slowMinObs is how many observations the tracker wants before it trusts
// its median enough to flag anything.
const slowMinObs = 8

// NewSlowTracker tracks a rolling window of windowSize durations and flags
// a sample exceeding factor × median. factor <= 0 disables flagging (the
// tracker still records, so Median stays meaningful).
func NewSlowTracker(windowSize int, factor float64) *SlowTracker {
	if windowSize <= 0 {
		windowSize = 64
	}
	return &SlowTracker{window: make([]float64, windowSize), factor: factor}
}

// Observe records one solve duration and reports whether it was slow
// relative to the median of the durations seen before it (comparing
// against the prior window keeps one huge outlier from hiding itself), and
// that median.
func (t *SlowTracker) Observe(d float64) (slow bool, median float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	median = t.medianLocked()
	slow = t.factor > 0 && t.n >= slowMinObs && median > 0 && d > t.factor*median
	t.window[t.next] = d
	t.next = (t.next + 1) % len(t.window)
	if t.n < len(t.window) {
		t.n++
	}
	return slow, median
}

func (t *SlowTracker) medianLocked() float64 {
	if t.n == 0 {
		return 0
	}
	tmp := make([]float64, t.n)
	copy(tmp, t.window[:t.n])
	sort.Float64s(tmp)
	return tmp[t.n/2]
}

// WriteChromeTrace writes rec's stitched Chrome trace: the service-stage
// spans on their own process row and, when res carries a runtime trace,
// the per-rank event rows next to them. tagName labels runtime span tags
// (pass trsv.TagName). The two rows run on different clocks (service spans
// on the server clock, rank events on the backend's — virtual seconds
// under DES); the file juxtaposes them, it does not align them. A
// *runtime.DroppedEventsError return means the file is valid but the rank
// rows are truncated.
func WriteChromeTrace(w io.Writer, rec *Record, res *runtime.Result, tagName func(int) string) error {
	spans := make([]runtime.TraceSpan, 0, len(rec.Spans))
	for i, sp := range rec.Spans {
		args := map[string]any{}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		args["request_id"] = rec.ID
		ts := runtime.TraceSpan{
			Name: sp.Stage, Pid: 1, Tid: 0,
			StartUs: sp.StartS * 1e6, DurUs: sp.DurS * 1e6,
			Args: args,
		}
		if i == 0 {
			ts.ProcessName = "solve-service"
			ts.ThreadName = "request " + rec.ID
		}
		spans = append(spans, ts)
	}
	if res != nil && res.Trace != nil {
		return res.WriteTraceStitched(w, tagName, spans)
	}
	return runtime.WriteTraceSpans(w, spans)
}

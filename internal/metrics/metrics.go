// Package metrics is a dependency-free, concurrency-safe metrics registry
// for the solver stack: atomic counters, gauges, and fixed-bucket
// histograms, each optionally split by a small set of labels (algorithm,
// backend, machine, matrix fingerprint), plus an OpenMetrics v1 text
// exposition writer (openmetrics.go) so a running process can be scraped
// at /metrics by Prometheus-compatible collectors.
//
// Design rules, in the spirit of the paper's communication/computation
// accounting (message counts, volumes, per-phase seconds):
//
//   - Instrumented packages publish at run boundaries, never inside hot
//     loops: the runtime aggregates per-rank timers when a run completes,
//     the solver records one histogram observation per solve. Metric
//     updates therefore cannot perturb the discrete-event schedule, and
//     repeated DES runs of the same seed add bit-identical values.
//   - Values are float64 updated with compare-and-swap on the raw bits;
//     integer counts stay exact far beyond any realistic event count
//     (2^53 messages).
//   - Families are created once (usually in package var blocks) and
//     looked up per label set; the per-(family,labels) metric handle can
//     be cached by the caller when even the map lookup matters.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// value is an atomically updated float64 (bits stored in a uint64).
type value struct{ bits atomic.Uint64 }

func (v *value) load() float64 { return math.Float64frombits(v.bits.Load()) }
func (v *value) store(f float64) {
	v.bits.Store(math.Float64bits(f))
}
func (v *value) add(f float64) {
	for {
		old := v.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + f)
		if v.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Counter is a monotonically non-decreasing value under one label set.
type Counter struct{ v value }

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract — a negative add is a caller bug, not a reason to
// corrupt the exposition).
func (c *Counter) Add(d float64) {
	if d > 0 {
		c.v.add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a value that can go up and down under one label set.
type Gauge struct{ v value }

// Set replaces the gauge value.
func (g *Gauge) Set(f float64) { g.v.store(f) }

// Add shifts the gauge by d (negative allowed).
func (g *Gauge) Add(d float64) { g.v.add(d) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram is a fixed-bucket distribution under one label set: counts of
// observations ≤ each upper bound, plus the running sum. Buckets are set
// at family creation and never change, so Observe is a binary search plus
// two atomic adds. Each bucket additionally carries one exemplar slot (see
// ObserveExemplar) holding the most recent sample a caller chose to
// annotate — the OpenMetrics exemplar mechanism that links a latency
// bucket back to a concrete request ID.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf is implicit
	counts []atomic.Uint64
	inf    atomic.Uint64 // observations above the last bound
	sum    value
	ex     []atomic.Pointer[Exemplar] // len(bounds)+1 slots; last is +Inf
}

// Exemplar annotates one histogram observation with an identifying label
// (typically request_id) and the observation's wall-clock time. It is
// exposed on the bucket line the observation landed in, using the
// OpenMetrics exemplar syntax, when the registry's exemplar flag is on.
type Exemplar struct {
	// LabelKey and LabelValue are the single identifying label
	// ("request_id", "abc123"). OpenMetrics caps an exemplar's combined
	// label length at 128 characters; ObserveExemplar clamps the value to
	// fit rather than dropping the exemplar.
	LabelKey, LabelValue string
	// Value is the observed sample; ObserveExemplar fills it in.
	Value float64
	// Ts is the observation's Unix time in seconds; <= 0 omits the
	// timestamp from the exposition. Callers stamp it from their own clock
	// so tests with injected clocks stay deterministic.
	Ts float64
}

// exemplarMaxLen is the OpenMetrics cap on the combined length of an
// exemplar's label names and values.
const exemplarMaxLen = 128

// Observe records one sample.
func (h *Histogram) Observe(f float64) {
	i := sort.SearchFloat64s(h.bounds, f)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.sum.add(f)
}

// ObserveExemplar records one sample like Observe and stamps the landing
// bucket's exemplar slot with e (last writer wins — the freshest exemplar
// is the most useful one for debugging a live spike). The cost over
// Observe is one pointer store plus one heap allocation for the exemplar;
// callers on hot paths that do not need linkage keep calling Observe.
func (h *Histogram) ObserveExemplar(f float64, e Exemplar) {
	i := sort.SearchFloat64s(h.bounds, f)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.sum.add(f)
	e.Value = f
	if over := len(e.LabelKey) + len(e.LabelValue) - exemplarMaxLen; over > 0 {
		if over < len(e.LabelValue) {
			e.LabelValue = e.LabelValue[:len(e.LabelValue)-over]
		} else {
			e.LabelValue = ""
		}
	}
	h.ex[i].Store(&e)
}

// Exemplars returns the current per-bucket exemplars keyed by bucket upper
// bound (math.Inf(1) for the +Inf bucket); buckets whose slot was never
// stamped are absent.
func (h *Histogram) Exemplars() map[float64]Exemplar {
	out := map[float64]Exemplar{}
	for i := range h.ex {
		if e := h.ex[i].Load(); e != nil {
			bound := math.Inf(1)
			if i < len(h.bounds) {
				bound = h.bounds[i]
			}
			out[bound] = *e
		}
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// cumulative returns the cumulative counts per bound (not including +Inf)
// and the grand total.
func (h *Histogram) cumulative() ([]uint64, uint64) {
	cum := make([]uint64, len(h.bounds))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, run + h.inf.Load()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket where the cumulative count crosses q·total — the
// standard fixed-bucket estimate, accurate to within one bucket of the
// exact quantile (the property the tests pin). It returns NaN with no
// observations, and the last finite bound when the quantile falls in the
// +Inf bucket.
func (h *Histogram) Quantile(q float64) float64 {
	cum, total := h.cumulative()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) >= rank {
			lo := 0.0
			var below uint64
			if i > 0 {
				lo = h.bounds[i-1]
				below = cum[i-1]
			}
			in := float64(c - below)
			if in == 0 {
				return h.bounds[i]
			}
			frac := (rank - float64(below)) / in
			if frac < 0 {
				frac = 0
			}
			return lo + (h.bounds[i]-lo)*frac
		}
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// DefBuckets spans the solve latencies this repo sees — sub-microsecond
// virtual times on tiny test matrices up to minutes of wall clock — in
// half-decade steps.
var DefBuckets = []float64{
	1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
	1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5, 10, 60,
}

// family is one named metric with its per-label-set children.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	bounds  []float64 // histogram families only
	mu      sync.RWMutex
	kids    map[string]any // label-values key → *Counter/*Gauge/*Histogram
	keyList []string       // insertion order, re-sorted at exposition
}

// appendLabelKey appends the child key of the label values to buf: the
// values joined with a separator no sane value contains.
func appendLabelKey(buf []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			buf = append(buf, '\x1f')
		}
		buf = append(buf, v...)
	}
	return buf
}

func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values %v, got %d",
			f.name, len(f.labels), f.labels, len(values)))
	}
	// The key is built in a stack buffer and looked up without converting
	// it to a string (the compiler elides that allocation for a map
	// index), so a hit allocates nothing; only a miss stores a string.
	var arr [128]byte
	key := appendLabelKey(arr[:0], values)
	f.mu.RLock()
	c, ok := f.kids[string(key)]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	k := string(key)
	if c, ok = f.kids[k]; ok {
		return c
	}
	switch f.kind {
	case KindCounter:
		c = &Counter{}
	case KindGauge:
		c = &Gauge{}
	case KindHistogram:
		c = &Histogram{
			bounds: f.bounds,
			counts: make([]atomic.Uint64, len(f.bounds)),
			ex:     make([]atomic.Pointer[Exemplar], len(f.bounds)+1),
		}
	}
	f.kids[k] = c
	f.keyList = append(f.keyList, k)
	return c
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry (or use Default).
type Registry struct {
	mu        sync.RWMutex
	families  map[string]*family
	exemplars atomic.Bool
}

// SetExemplars toggles OpenMetrics exemplar exposition for this registry.
// Off by default: the plain exposition stays byte-identical to what every
// pre-exemplar scraper and determinism test expects, and a deployment opts
// in (cmd/serve -exemplars) when its collector understands the syntax.
// Stored exemplars are kept either way — the flag gates rendering only.
func (r *Registry) SetExemplars(on bool) { r.exemplars.Store(on) }

// ExemplarsEnabled reports whether exemplar exposition is on.
func (r *Registry) ExemplarsEnabled() bool { return r.exemplars.Load() }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// def is the process-wide registry the instrumented packages publish to.
var def = NewRegistry()

// Default returns the process-wide registry — the one /metrics serves.
func Default() *Registry { return def }

// family registers (or returns the existing) family under name, checking
// that kind and label names agree with any previous registration: two
// packages silently sharing one name with different shapes would corrupt
// the exposition.
func (r *Registry) family(name, help string, kind Kind, bounds []float64, labels []string) *family {
	validateName(name)
	for _, l := range labels {
		validateName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("metrics: family %s re-registered as %v%v, was %v%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...), kids: map[string]any{},
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validateName enforces the OpenMetrics metric/label name grammar.
func validateName(name string) {
	if name == "" {
		panic("metrics: empty name")
	}
	for i, c := range name {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid name %q", name))
		}
	}
}

// CounterVec is a counter family; With selects one label set.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). The value count and order must match the family's label names.
func (v CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// GaugeVec is a gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// HistogramVec is a histogram family with shared fixed buckets.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// Counter registers (or fetches) a counter family. Counter names must not
// carry the _total suffix — the exposition writer appends it, per the
// OpenMetrics counter convention.
func (r *Registry) Counter(name, help string, labels ...string) CounterVec {
	if strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("metrics: counter %s must be registered without the _total suffix", name))
	}
	return CounterVec{r.family(name, help, KindCounter, nil, labels)}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.family(name, help, KindGauge, nil, labels)}
}

// Histogram registers (or fetches) a histogram family with the given
// strictly increasing finite bucket upper bounds (nil means DefBuckets).
// The +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram %s buckets not strictly increasing at %d", name, i))
		}
	}
	for _, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic(fmt.Sprintf("metrics: histogram %s bucket bounds must be finite (+Inf is implicit)", name))
		}
	}
	return HistogramVec{r.family(name, help, KindHistogram, bounds, labels)}
}

// snapshotFamilies returns the families sorted by name, and each family's
// children sorted by label key — a deterministic exposition order, so two
// identical registries render byte-identical text.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

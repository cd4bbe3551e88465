package metrics

import (
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_msgs", "messages", "cat").With("xy")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %g, want 5", got)
	}
	if again := r.Counter("test_msgs", "messages", "cat").With("xy"); again != c {
		t.Fatal("re-registration did not return the same child")
	}
	g := r.Gauge("test_residual", "last residual").With()
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

// TestWithLookupAllocFree pins the hot-path contract of labelled
// families: once a child exists, selecting it again allocates nothing.
func TestWithLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	v := NewRegistry().Counter("test_ops", "ops", "algorithm", "phase")
	v.With("proposed-3d", "diag_y").Inc() // create the child
	allocs := testing.AllocsPerRun(100, func() {
		v.With("proposed-3d", "diag_y").Inc()
	})
	if allocs != 0 {
		t.Fatalf("With on an existing child allocated %v times per call, want 0", allocs)
	}
	if got := v.With("proposed-3d", "diag_y").Value(); got != 102 {
		t.Fatalf("counter = %g, want 102", got)
	}
}

func TestFamilyShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x", "")
	for _, f := range []func(){
		func() { r.Gauge("test_x", "") },
		func() { r.Counter("test_x", "", "extra") },
		func() { r.Counter("bad-name", "") },
		func() { r.Counter("test_y_total", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramCounts(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "latency", []float64{1, 2, 4}).With()
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %g, want 106", h.Sum())
	}
	cum, total := h.cumulative()
	want := []uint64{2, 3, 4}
	for i, c := range cum {
		if c != want[i] {
			t.Fatalf("cum[%d] = %d, want %d", i, c, want[i])
		}
	}
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
}

// TestHistogramQuantileProperty pins the accuracy contract: for random
// inputs, the histogram's quantile estimate lands within one bucket of the
// exact sample quantile.
func TestHistogramQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}
	// bucketOf maps a value to the index of the bucket containing it,
	// len(bounds) meaning the +Inf bucket.
	bucketOf := func(v float64) int { return sort.SearchFloat64s(bounds, v) }
	for trial := 0; trial < 50; trial++ {
		r := NewRegistry()
		h := r.Histogram("test_q", "", bounds).With()
		n := 1 + rng.Intn(2000)
		samples := make([]float64, n)
		for i := range samples {
			// Log-uniform over the bucket range, occasionally beyond it.
			samples[i] = math.Pow(10, -3.5+4.2*rng.Float64())
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			idx := int(math.Ceil(q*float64(n))) - 1
			if idx < 0 {
				idx = 0
			}
			exact := samples[idx]
			est := h.Quantile(q)
			if math.IsNaN(est) {
				t.Fatalf("trial %d q=%g: NaN estimate with %d samples", trial, q, n)
			}
			be, bx := bucketOf(est), bucketOf(exact)
			if be > bx+1 || be < bx-1 {
				t.Fatalf("trial %d q=%g: estimate %g (bucket %d) not within one bucket of exact %g (bucket %d)",
					trial, q, est, be, exact, bx)
			}
		}
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_e", "", []float64{1, 2}).With()
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}

// ---- OpenMetrics validity ----

var (
	reComment = regexp.MustCompile(`^# (TYPE|HELP|UNIT) ([a-zA-Z_][a-zA-Z0-9_]*) (.+)$`)
	// reSample accepts an optional OpenMetrics exemplar suffix
	// (` # {labels} value [timestamp]`) after the sample value; the
	// exemplar groups are 6 (labels), 7 (value), 9 (timestamp).
	reSample = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)(\{([^}]*)\})? (\S+)( # \{([^}]*)\} (\S+)( (\S+))?)?$`)
	reLabel  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// validateOpenMetrics is a strict-enough OpenMetrics v1 text parser for
// tests: it checks the line grammar, the terminal # EOF, counter _total
// suffixes, histogram bucket monotonicity and le labels, and returns every
// sample as name{sortedlabels} → value.
func validateOpenMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	lines := strings.Split(text, "\n")
	if len(lines) < 2 || lines[len(lines)-1] != "" || lines[len(lines)-2] != "# EOF" {
		t.Fatalf("exposition must end with a single '# EOF' line, got tail %q", lines[max(0, len(lines)-3):])
	}
	lines = lines[:len(lines)-2]
	types := map[string]string{}
	samples := map[string]float64{}
	var curFamily string
	type bucketState struct {
		last     uint64
		sawInf   bool
		count    uint64
		hasCount bool
	}
	buckets := map[string]*bucketState{}
	for _, ln := range lines {
		if ln == "# EOF" {
			t.Fatal("# EOF before end of exposition")
		}
		if strings.HasPrefix(ln, "#") {
			m := reComment.FindStringSubmatch(ln)
			if m == nil {
				t.Fatalf("bad metadata line %q", ln)
			}
			if m[1] == "TYPE" {
				if _, dup := types[m[2]]; dup {
					t.Fatalf("duplicate TYPE for %s", m[2])
				}
				types[m[2]] = m[3]
				curFamily = m[2]
			}
			continue
		}
		m := reSample.FindStringSubmatch(ln)
		if m == nil {
			t.Fatalf("bad sample line %q", ln)
		}
		name, labelStr, valStr := m[1], m[3], m[4]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", ln, err)
		}
		hasExemplar := m[5] != ""
		if hasExemplar {
			if !strings.HasSuffix(name, "_bucket") && !strings.HasSuffix(name, "_total") {
				t.Fatalf("exemplar on non-bucket/non-counter sample %q", ln)
			}
			total := 0
			for _, piece := range splitLabels(m[6]) {
				lm := reLabel.FindStringSubmatch(piece)
				if lm == nil {
					t.Fatalf("bad exemplar label %q in %q", piece, ln)
				}
				total += len(lm[1]) + len(lm[2])
			}
			if total > 128 {
				t.Fatalf("exemplar labelset exceeds 128 chars in %q", ln)
			}
			if _, err := strconv.ParseFloat(m[7], 64); err != nil {
				t.Fatalf("bad exemplar value in %q: %v", ln, err)
			}
			if m[9] != "" {
				if _, err := strconv.ParseFloat(m[9], 64); err != nil {
					t.Fatalf("bad exemplar timestamp in %q: %v", ln, err)
				}
			}
		}
		famType, fam := "", ""
		for f, ty := range types {
			if name == f || (strings.HasPrefix(name, f) &&
				(name == f+"_total" || name == f+"_bucket" || name == f+"_count" || name == f+"_sum")) {
				if len(f) > len(fam) {
					famType, fam = ty, f
				}
			}
		}
		if fam == "" {
			t.Fatalf("sample %q has no preceding TYPE", name)
		}
		if fam != curFamily {
			t.Fatalf("sample %q outside its family block (current %s)", name, curFamily)
		}
		var le string
		var sortedLabels []string
		if labelStr != "" {
			for _, piece := range splitLabels(labelStr) {
				lm := reLabel.FindStringSubmatch(piece)
				if lm == nil {
					t.Fatalf("bad label %q in %q", piece, ln)
				}
				if lm[1] == "le" {
					le = lm[2]
				}
				sortedLabels = append(sortedLabels, piece)
			}
			sort.Strings(sortedLabels)
		}
		key := name + "{" + strings.Join(sortedLabels, ",") + "}"
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %s", key)
		}
		samples[key] = v
		switch famType {
		case "counter":
			if name != fam+"_total" {
				t.Fatalf("counter sample %q must use the _total suffix", name)
			}
			if v < 0 {
				t.Fatalf("negative counter %s = %g", key, v)
			}
		case "histogram":
			// Bucket series per label set (le stripped).
			var rest []string
			for _, l := range sortedLabels {
				if !strings.HasPrefix(l, `le="`) {
					rest = append(rest, l)
				}
			}
			series := fam + "{" + strings.Join(rest, ",") + "}"
			st := buckets[series]
			if st == nil {
				st = &bucketState{}
				buckets[series] = st
			}
			switch {
			case name == fam+"_bucket":
				if le == "" {
					t.Fatalf("histogram bucket %q missing le label", ln)
				}
				c := uint64(v)
				if c < st.last {
					t.Fatalf("histogram %s buckets not monotone at le=%s", series, le)
				}
				st.last = c
				if le == "+Inf" {
					st.sawInf = true
				}
			case name == fam+"_count":
				st.count, st.hasCount = uint64(v), true
			}
		}
	}
	for series, st := range buckets {
		if !st.sawInf {
			t.Fatalf("histogram %s missing +Inf bucket", series)
		}
		if st.hasCount && st.count != st.last {
			t.Fatalf("histogram %s count %d != +Inf bucket %d", series, st.count, st.last)
		}
	}
	return samples
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

func TestWriteOpenMetricsValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_msgs", "messages sent", "backend", "cat").With("des", "XY-Comm").Add(12)
	r.Counter("test_msgs", "messages sent", "backend", "cat").With("des", "Z-Comm").Add(3)
	r.Gauge("test_residual", `odd "label" help with \ and`+"\nnewline", "m").With(`quo"te\n`).Set(1e-9)
	h := r.Histogram("test_lat_seconds", "solve latency", []float64{0.001, 0.1, 1}, "algo").With("proposed-3d")
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(50)

	var sb strings.Builder
	if err := r.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	samples := validateOpenMetrics(t, sb.String())

	if got := samples[`test_msgs_total{backend="des",cat="XY-Comm"}`]; got != 12 {
		t.Fatalf("counter sample = %g, want 12", got)
	}
	if got := samples[`test_lat_seconds_count{algo="proposed-3d"}`]; got != 3 {
		t.Fatalf("histogram count = %g, want 3", got)
	}
	if got := samples[`test_lat_seconds_bucket{algo="proposed-3d",le="+Inf"}`]; got != 3 {
		t.Fatalf("+Inf bucket = %g, want 3", got)
	}
	if got := samples[`test_lat_seconds_sum{algo="proposed-3d"}`]; got != 50.0505 {
		t.Fatalf("histogram sum = %g, want 50.0505", got)
	}
}

// TestExpositionDeterministic pins that rendering is a pure function of
// the stored values: same updates → byte-identical text, regardless of
// label-set creation order.
func TestExpositionDeterministic(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		v := r.Counter("test_m", "", "k")
		keys := []string{"a", "b", "c"}
		for _, i := range order {
			v.With(keys[i]).Add(float64(i + 1))
		}
		var sb strings.Builder
		if err := r.WriteOpenMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := build([]int{0, 1, 2}), build([]int{2, 0, 1}); a != b {
		t.Fatalf("exposition depends on creation order:\n%s\nvs\n%s", a, b)
	}
}

// TestConcurrentUpdatesAndScrape hammers one registry from many goroutines
// while scraping — the shape the serving mode runs in. Run under -race.
func TestConcurrentUpdatesAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hits", "", "worker")
	h := r.Histogram("test_obs", "", []float64{1, 10, 100})
	var wg sync.WaitGroup
	const workers, iters = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := strconv.Itoa(w % 3)
			for i := 0; i < iters; i++ {
				c.With(id).Inc()
				h.With().Observe(float64(i % 200))
			}
		}(w)
	}
	for s := 0; s < 20; s++ {
		var sb strings.Builder
		if err := r.WriteOpenMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		validateOpenMetrics(t, sb.String())
	}
	wg.Wait()
	total := 0.0
	for _, id := range []string{"0", "1", "2"} {
		total += c.With(id).Value()
	}
	if total != workers*iters {
		t.Fatalf("lost updates: %g != %d", total, workers*iters)
	}
	if h.With().Count() != workers*iters {
		t.Fatalf("histogram lost updates: %d", h.With().Count())
	}
}

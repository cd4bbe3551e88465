package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sptrsv/internal/bench"
	"sptrsv/internal/gen"
	"sptrsv/internal/sparse"
)

// tinyOpts is a short self-test run: tiny inputs, a fraction of a second.
func tinyOpts(t *testing.T, seed int64, trace bool) runOpts {
	return runOpts{seed: seed, seconds: 0.3, trace: trace, tiny: true, spansDir: t.TempDir()}
}

// TestWorkloadsEmitEveryMetric runs every workload at tiny size, untraced
// and traced, and checks that each run is correct and emits exactly its
// mode's metrics, each with a unit, in the JSON result line.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w.Name, tinyOpts(t, 7, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			var buf bytes.Buffer
			if err := printResult(&buf, w.Name, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var wr wireResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &wr); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.Name, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(wr.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(wr.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := wr.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if wr.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, m.Name, wr.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestCheckerCatchesPerturbedSolution runs every workload with each
// measured solution perturbed in one entry by one part in a million and
// checks that the run counts the wrong answers and is marked incorrect.
func TestCheckerCatchesPerturbedSolution(t *testing.T) {
	for _, w := range workloads {
		o := tinyOpts(t, 5, false)
		o.tamper = true
		res, err := runWorkload(w.Name, o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: perturbed solutions passed: correct=%v failed=%d", w.Name, res.Correct, res.Failed)
		}
	}
}

// TestSameSeedExactCounts runs each traced workload twice with one seed and
// checks that the exact counts repeat.
func TestSameSeedExactCounts(t *testing.T) {
	exact := []string{"runtime.modeled_msgs", "runtime.modeled_bytes", "runtime.modeled_s",
		"trsv.block_ops_per_solve", "sched.tasks", "factor.fill_nnz"}
	for _, w := range workloads {
		var first map[string]float64
		for rep := 0; rep < 2; rep++ {
			res, err := runWorkload(w.Name, tinyOpts(t, 11, true))
			if err != nil || !res.Correct {
				t.Fatalf("%s: err=%v errors=%v", w.Name, err, res.Errors)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, k := range exact {
				if res.Metrics[k] != first[k] {
					t.Errorf("%s: %s = %v, first run %v", w.Name, k, res.Metrics[k], first[k])
				}
			}
		}
	}
}

// TestLadderPartsNonNegative checks the traced pool-1rhs ladder: no part
// is negative on a real run, and the check fails on an attribution whose
// replayed GEMM and waits exceed the rank clock.
func TestLadderPartsNonNegative(t *testing.T) {
	res, err := runWorkload("pool-1rhs", tinyOpts(t, 3, true))
	if err != nil || !res.Correct {
		t.Fatalf("err=%v errors=%v", err, res.Errors)
	}
	m := res.Metrics
	for _, k := range []string{"sparse.gemm_rank_ms", "runtime.wait_ms_per_solve", "trsv.self_ms", "core.unattributed_ms"} {
		if !(m[k] >= 0) {
			t.Errorf("ladder part %s = %g ms", k, m[k])
		}
	}
	if m["bench.traced_solve_ms"] <= 0 {
		t.Errorf("traced solve %g ms", m["bench.traced_solve_ms"])
	}
	// A rank clock of 1 ms holding 0.4 ms of waits cannot hold 0.8 ms of
	// GEMM.
	bad := ladder{solve: 1.2, gemm: 0.8, wait: 0.4, trsv: 1 - 0.4 - 0.8, unattributed: 0.2}
	if bad.check() == nil {
		t.Error("check accepted a negative trsv part")
	}
}

// TestDESMatchesBenchSummary runs every des-fig4 point with the inputs
// BENCH_SPTRSV.json was built from (the small-scale gen.Named analogs, the
// summary's right-hand side, tree depth 6) and checks that its modeled
// seconds, messages and bytes equal the matching record: the old modeled
// gate and this benchmark measure the same program.
func TestDESMatchesBenchSummary(t *testing.T) {
	sum, err := bench.ReadSummary(filepath.Join("..", "BENCH_SPTRSV.json"))
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]bench.SummaryRecord{}
	for _, r := range sum.Records {
		byID[r.ID] = r
	}
	mats := map[string]*sparse.CSR{}
	for _, name := range []string{"s2d9pt", "nlpkkt"} {
		mats[name] = gen.Named(name, gen.Small).A
	}
	set, err := buildDESSet(mats, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range set.pts {
		rec, ok := byID[pt.id]
		if !ok {
			t.Errorf("%s: no such record in BENCH_SPTRSV.json", pt.id)
			continue
		}
		a := mats[pt.matrix]
		b := sparse.NewPanel(a.N, 1)
		for j := range b.Data {
			b.Data[j] = 1 + float64(j%7)/7 // the summary's right-hand side
		}
		x, rep, err := set.solvers[i].Solve(b)
		if err != nil {
			t.Fatalf("%s: %v", pt.id, err)
		}
		if err := checkSolution(a, x, b); err != nil {
			t.Fatalf("%s: %v", pt.id, err)
		}
		got := modeledOf(rep)
		if got.seconds != rec.Seconds {
			t.Errorf("%s: modeled seconds %v, record %v", pt.id, got.seconds, rec.Seconds)
		}
		if got.msgs != rec.Messages {
			t.Errorf("%s: messages %d, record %d", pt.id, got.msgs, rec.Messages)
		}
		if got.bytes != rec.Bytes {
			t.Errorf("%s: bytes %d, record %d", pt.id, got.bytes, rec.Bytes)
		}
	}
}

// TestBenchmarkJSONMatchesSpec checks that the committed BENCHMARK.json is
// what spec.go generates.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, buf.Bytes()) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate with: go run . -write-spec ../BENCHMARK.json")
	}
}

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"

	"sptrsv/internal/ctree"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/trsv"
)

// SummarySchema versions the BENCH_SPTRSV.json layout. Bump it whenever a
// field changes meaning; readers refuse to compare across schema versions
// rather than silently comparing incompatible quantities.
//
// Schema 3: Bytes counts every panel dense (a 16 B envelope per message,
// then a 16 B header and 8·Rows·Cols per panel). Schema 2 counted a
// packed wire format that indexed sparse rows and dropped trailing zero
// columns, and schema 1 a dense model with one header per bundle; none
// of the three byte columns are comparable.
const SummarySchema = 3

// summaryRepeats is how many measured solves back each record. The
// discrete-event backend is deterministic, so the median over repeats
// equals any single run — the repeats exist so allocs/op is a steady-state
// number (pools warm) and so the pipeline keeps working if a wall-clock
// backend is ever added.
const summaryRepeats = 3

// SummaryRecord is one benchmark point of the machine-readable summary:
// a (figure, matrix, algorithm, layout, machine) configuration with its
// modeled makespan, total message traffic, and steady-state allocations
// per solve.
type SummaryRecord struct {
	ID        string `json:"id"`
	Figure    string `json:"figure"`
	Matrix    string `json:"matrix"`
	Algorithm string `json:"algorithm"`
	Layout    string `json:"layout"`
	Trees     string `json:"trees"`
	Machine   string `json:"machine"`
	NRHS      int    `json:"nrhs"`
	// Seconds is the median modeled makespan over summaryRepeats solves.
	Seconds float64 `json:"seconds"`
	// Messages and Bytes are totals over all ranks and categories for one
	// solve — bit-identical across runs on the discrete-event backend.
	Messages int `json:"messages"`
	Bytes    int `json:"bytes"`
	// AllocsPerOp is the average heap allocations per solve once the
	// solver's buffer and state pools are warm. Tracked to catch
	// accidental per-solve allocation creep; regressions warn, not fail.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Summary is the whole BENCH_SPTRSV.json document.
type Summary struct {
	Schema  int             `json:"schema"`
	Scale   string          `json:"scale"`
	Records []SummaryRecord `json:"records"`
}

// summaryPoint names one configuration of the summary's fixed point set.
type summaryPoint struct {
	figure string
	matrix string
	rc     runCfg
}

// summaryPoints is the fixed benchmark set behind BENCH_SPTRSV.json: a
// compact slice through the paper's figures — Fig. 4's CPU strong-scaling
// comparison (both 3D algorithms, replicated and unreplicated), one GPU
// point from each of Figs. 9/10, and the naive-allreduce ablation. Small
// enough to run in CI, broad enough that a regression in any algorithm's
// kernel or communication path moves at least one record.
func summaryPoints() []summaryPoint {
	cori := machine.CoriHaswell()
	var pts []summaryPoint
	for _, m := range []string{"s2d9pt", "nlpkkt"} {
		for _, pz := range []int{1, 4} {
			px, py := grid.Square2D(64 / pz)
			layout := grid.Layout{Px: px, Py: py, Pz: pz}
			pts = append(pts,
				summaryPoint{"fig4", m, runCfg{layout: layout, algo: trsv.Baseline3D, trees: ctree.Flat, model: cori, nrhs: 1}},
				summaryPoint{"fig4", m, runCfg{layout: layout, algo: trsv.Proposed3D, trees: ctree.Binary, model: cori, nrhs: 1}})
		}
	}
	gpuLayout := grid.Layout{Px: 1, Py: 1, Pz: 4}
	pts = append(pts,
		summaryPoint{"fig9", "s1mat", runCfg{layout: gpuLayout, algo: trsv.GPUSingle, trees: ctree.Auto, model: machine.CrusherGPU(), nrhs: 1}},
		summaryPoint{"fig10", "s2d9pt", runCfg{layout: gpuLayout, algo: trsv.GPUSingle, trees: ctree.Auto, model: machine.PerlmutterGPU(), nrhs: 1}},
		summaryPoint{"ablation", "s2d9pt", runCfg{layout: grid.Layout{Px: 4, Py: 4, Pz: 4}, algo: trsv.Proposed3DNaiveAR, trees: ctree.Binary, model: cori, nrhs: 1}})
	return pts
}

// BuildSummary runs the fixed point set at cfg.Scale and returns the
// machine-readable summary. Quick is ignored: the point set is already
// CI-sized, and shrinking it would change record IDs and break baseline
// comparison.
func BuildSummary(cfg Config) *Summary {
	l := newLab(cfg)
	sum := &Summary{Schema: SummarySchema, Scale: l.cfg.Scale.String()}
	for _, pt := range summaryPoints() {
		rc := pt.rc
		cfg.logf("summary %s %s %s %dx%dx%d", pt.figure, pt.matrix, rc.algo,
			rc.layout.Px, rc.layout.Py, rc.layout.Pz)
		var secs []float64
		var msgs, bytes int
		// AllocsPerRun calls the function once extra to warm up, which
		// absorbs factorization and solver construction; the measured
		// repeats see only steady-state per-solve allocations.
		allocs := testing.AllocsPerRun(summaryRepeats, func() {
			rep := l.run(pt.matrix, rc)
			secs = append(secs, rep.Time)
			msgs, bytes = 0, 0
			for _, t := range rep.Raw.Timers {
				for _, c := range t.MsgsSent {
					msgs += c
				}
				for _, c := range t.BytesSent {
					bytes += c
				}
			}
		})
		id := fmt.Sprintf("%s/%s/%s/%dx%dx%d/%s/%s/nrhs=%d",
			pt.figure, pt.matrix, rc.algo, rc.layout.Px, rc.layout.Py, rc.layout.Pz,
			rc.trees, rc.model.Name, rc.nrhs)
		sum.Records = append(sum.Records, SummaryRecord{
			ID:          id,
			Figure:      pt.figure,
			Matrix:      pt.matrix,
			Algorithm:   rc.algo.String(),
			Layout:      fmt.Sprintf("%dx%dx%d", rc.layout.Px, rc.layout.Py, rc.layout.Pz),
			Trees:       rc.trees.String(),
			Machine:     rc.model.Name,
			NRHS:        rc.nrhs,
			Seconds:     median(secs),
			Messages:    msgs,
			Bytes:       bytes,
			AllocsPerOp: allocs,
		})
	}
	return sum
}

// WriteJSON writes the summary as indented JSON with a trailing newline —
// the exact bytes committed as BENCH_SPTRSV.json.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSummary loads a committed summary. A missing or unreadable file
// comes back as the os.Open error (callers map it to their input-error
// exit code); a parseable file with the wrong schema version is rejected
// here because comparing across schemas would be silently wrong.
func ReadSummary(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: not a benchmark summary: %v", path, err)
	}
	if s.Schema != SummarySchema {
		return nil, fmt.Errorf("%s: schema %d, this binary understands %d (regenerate with -only bench)",
			path, s.Schema, SummarySchema)
	}
	return &s, nil
}

// Regression is one difference between a current summary and the
// baseline. Fatal regressions fail the gate: latency above the tolerance,
// any message-count increase, bytes above the byte tolerance, or a
// baseline record the current build no longer produces. Everything else
// (allocs creep, records new in the current build) is a warning.
type Regression struct {
	ID     string
	Detail string
	Fatal  bool
}

func (r Regression) String() string {
	sev := "warn"
	if r.Fatal {
		sev = "FAIL"
	}
	return fmt.Sprintf("%s  %s: %s", sev, r.ID, r.Detail)
}

// CompareSummaries checks cur against base and returns every regression,
// fatal ones first. latencyTol is the fractional slowdown allowed per
// record (0.05 = 5%); bytesTol is the fractional byte growth allowed
// (0 = any increase fails — bytes are deterministic on the simulation
// backend, so growth is a real accounting or packing change); message
// counts allow none — the paper's headline claim is fewer messages, so
// even one more is a regression. It is an error (not a regression) to
// compare summaries of different scales.
func CompareSummaries(cur, base *Summary, latencyTol, bytesTol float64) ([]Regression, error) {
	if cur.Scale != base.Scale {
		return nil, fmt.Errorf("scale mismatch: current %q vs baseline %q", cur.Scale, base.Scale)
	}
	byID := make(map[string]SummaryRecord, len(cur.Records))
	for _, r := range cur.Records {
		byID[r.ID] = r
	}
	var regs []Regression
	add := func(id string, fatal bool, format string, args ...any) {
		regs = append(regs, Regression{ID: id, Fatal: fatal, Detail: fmt.Sprintf(format, args...)})
	}
	for _, b := range base.Records {
		c, ok := byID[b.ID]
		if !ok {
			add(b.ID, true, "record in baseline but not produced by this build")
			continue
		}
		delete(byID, b.ID)
		if b.Seconds > 0 && c.Seconds > b.Seconds*(1+latencyTol) {
			add(b.ID, true, "latency %.6g s vs baseline %.6g s (+%.1f%%, tolerance %.1f%%)",
				c.Seconds, b.Seconds, 100*(c.Seconds/b.Seconds-1), 100*latencyTol)
		}
		if c.Messages > b.Messages {
			add(b.ID, true, "messages %d vs baseline %d (+%d)", c.Messages, b.Messages, c.Messages-b.Messages)
		}
		if float64(c.Bytes) > float64(b.Bytes)*(1+bytesTol) {
			add(b.ID, true, "bytes %d vs baseline %d (+%d, tolerance %.1f%%)",
				c.Bytes, b.Bytes, c.Bytes-b.Bytes, 100*bytesTol)
		}
		// Allocation counts jitter by a handful of allocs run to run (GC
		// timing, map growth); only a >1% rise is worth a warning.
		if c.AllocsPerOp > b.AllocsPerOp*1.01 {
			add(b.ID, false, "allocs/op %.0f vs baseline %.0f (+%.1f%%)",
				c.AllocsPerOp, b.AllocsPerOp, 100*(c.AllocsPerOp/b.AllocsPerOp-1))
		}
	}
	for _, id := range sortedKeysStr(byID) {
		add(id, false, "record not in baseline (refresh with -only bench)")
	}
	sort.SliceStable(regs, func(i, j int) bool { return regs[i].Fatal && !regs[j].Fatal })
	return regs, nil
}

// median returns the median of v (0 for empty input).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

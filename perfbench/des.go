package main

import (
	"fmt"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// desPoint is one configuration of the des-fig4 set: a paper Fig. 4 CPU
// strong-scaling point or the Fig. 10 GPU point, as in BENCH_SPTRSV.json.
type desPoint struct {
	id      string
	matrix  string // "s2d9pt" or "nlpkkt"
	layout  grid.Layout
	algo    trsv.Algorithm
	trees   ctree.Kind
	machine *machine.Model
}

// desPoints is the fixed des-fig4 configuration set: {baseline-3d 8×8×1
// flat, proposed-3d 4×4×4 binary} × {s2d9pt, nlpkkt} on cori-haswell, plus
// gpu-single 1×1×4 on perlmutter-gpu.
func desPoints() []desPoint {
	cori := machine.CoriHaswell()
	var pts []desPoint
	for _, m := range []string{"s2d9pt", "nlpkkt"} {
		pts = append(pts,
			desPoint{"fig4/" + m + "/baseline-3d/8x8x1/flat/cori-haswell/nrhs=1", m,
				grid.Layout{Px: 8, Py: 8, Pz: 1}, trsv.Baseline3D, ctree.Flat, cori},
			desPoint{"fig4/" + m + "/proposed-3d/4x4x4/binary/cori-haswell/nrhs=1", m,
				grid.Layout{Px: 4, Py: 4, Pz: 4}, trsv.Proposed3D, ctree.Binary, cori})
	}
	return append(pts, desPoint{"fig10/s2d9pt/gpu-single/1x1x4/auto/perlmutter-gpu/nrhs=1", "s2d9pt",
		grid.Layout{Px: 1, Py: 1, Pz: 4}, trsv.GPUSingle, ctree.Auto, machine.PerlmutterGPU()})
}

// desMatrices generates the des-fig4 matrices: the small-scale s2d9pt and
// nlpkkt analogs (the sizes BENCH_SPTRSV.json uses) with seeded values.
// The sparsity pattern, and with it every modeled number, does not depend
// on the seed.
func desMatrices(seed int64, tiny bool) map[string]*sparse.CSR {
	side, nl := 32, 7 // gen.Named's Small scale
	if tiny {
		side, nl = 16, 4
	}
	return map[string]*sparse.CSR{
		"s2d9pt": gen.S2D9pt(side, side, seed),
		"nlpkkt": gen.NLPKKTLike(nl, seed+1),
	}
}

// desSet is the set-up of one des-fig4 run: the factored systems and one
// solver per configuration.
type desSet struct {
	pts     []desPoint
	systems map[string]*core.System
	solvers []*core.Solver
}

func buildDESSet(mats map[string]*sparse.CSR, spans *spanLog, op int64) (*desSet, error) {
	d := &desSet{pts: desPoints(), systems: map[string]*core.System{}}
	for _, name := range []string{"s2d9pt", "nlpkkt"} {
		s := spans.begin("core.Factorize", op, -1)
		sys, err := core.Factorize(mats[name], core.FactorOptions{TreeDepth: treeDepth})
		spans.end(s)
		if err != nil {
			return nil, fmt.Errorf("factorize %s: %w", name, err)
		}
		d.systems[name] = sys
	}
	for _, pt := range d.pts {
		s := spans.begin("core.NewSolver", op, -1)
		solver, err := core.NewSolver(d.systems[pt.matrix], core.Config{
			Layout: pt.layout, Algorithm: pt.algo, Trees: pt.trees, Machine: pt.machine,
		})
		spans.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.id, err)
		}
		d.solvers = append(d.solvers, solver)
	}
	return d, nil
}

// modeled is one simulated solve's modeled outcome.
type modeled struct {
	seconds     float64
	msgs, bytes int
}

func modeledOf(rep *core.Report) modeled {
	return modeled{seconds: rep.Time, msgs: rep.Raw.TotalMsgs(), bytes: rep.Raw.TotalBytes()}
}

// desBench is one des-fig4 run.
type desBench struct {
	o     runOpts
	set   *desSet
	mats  map[string]*sparse.CSR
	rhs   map[string]*sparse.Panel
	first []*modeled // per point: the first solve's modeled numbers
	res   *result
	spans *spanLog // the current window's spans (nil untraced)
	op    int64
	next  int
}

func newDESBench(o runOpts, res *result) *desBench {
	d := &desBench{o: o, mats: desMatrices(o.seed, o.tiny), res: res, rhs: map[string]*sparse.Panel{}}
	for i, name := range []string{"s2d9pt", "nlpkkt"} {
		d.rhs[name] = seededPanel(d.mats[name].N, 1, o.seed*1000+int64(i))
	}
	return d
}

// desSample is one measured simulated solve.
type desSample struct {
	round int     // pass over the configuration set this solve belongs to
	ms    float64 // host time
	rep   *core.Report
}

// solveOnce runs the next configuration round-robin, then checks the
// answer and that its modeled numbers repeat bit for bit.
func (d *desBench) solveOnce(traceRuntime bool) (desSample, bool) {
	i := d.next % len(d.set.pts)
	round := d.next / len(d.set.pts)
	d.next++
	d.op++
	pt := d.set.pts[i]
	b := d.rhs[pt.matrix]
	s := d.spans.begin("core.Solve", d.op, -1)
	t0 := time.Now()
	x, rep, err := d.set.solvers[i].SolveWith(b, core.SolveSpec{Trace: traceRuntime})
	ms := msSince(t0)
	d.spans.end(s)
	d.res.Attempted++
	if err != nil {
		d.res.fail(false, fmt.Errorf("%s: %w", pt.id, err))
		return desSample{}, false
	}
	c := d.spans.begin("bench.check", d.op, -1)
	err = d.o.check(d.mats[pt.matrix], x, b)
	d.spans.end(c)
	if err != nil {
		d.res.fail(true, fmt.Errorf("%s: %w", pt.id, err))
		return desSample{}, false
	}
	got := modeledOf(rep)
	if d.first[i] == nil {
		d.first[i] = &got
	} else if got != *d.first[i] {
		d.res.fail(true, fmt.Errorf("%s: modeled numbers changed between repeats: %+v, first %+v", pt.id, got, *d.first[i]))
		return desSample{}, false
	}
	return desSample{round: round, ms: ms, rep: rep}, true
}

// setup factors both systems and builds the five solvers.
func (d *desBench) setup(spans *spanLog, keep bool) (float64, error) {
	d.op++
	t0 := time.Now()
	set, err := buildDESSet(d.mats, spans, d.op)
	secs := time.Since(t0).Seconds()
	if err == nil && keep {
		d.set = set
		d.first = make([]*modeled, len(set.pts))
	}
	return secs, err
}

// warmup runs one round, which also pins each point's modeled numbers.
func (d *desBench) warmup() {
	for range d.set.pts {
		d.solveOnce(false)
	}
}

// window solves round-robin until d has elapsed and the round is
// complete. The latency sample is the host time of one pass over the
// configuration set, whose five points differ too much in cost for one
// solve to be a steady sample; the rate counts simulated solves per
// second of host time. A traced window arms the runtime tracer on one
// round in every four.
func (d *desBench) window(dur time.Duration, spans *spanLog) measured[desSample] {
	d.spans = spans
	traceGap := 0
	if spans != nil {
		traceGap = 4 * len(d.set.pts)
	}
	var mw measured[desSample]
	deadline := time.Now().Add(dur)
	for n := 0; time.Now().Before(deadline) || n%len(d.set.pts) != 0; n++ {
		if s, ok := d.solveOnce(traceGap > 0 && n%traceGap < len(d.set.pts)); ok {
			mw.samples = append(mw.samples, s)
		}
		mw.panels++
	}
	for i := 0; i < len(mw.samples); {
		j, t := i, 0.0
		for ; j < len(mw.samples) && mw.samples[j].round == mw.samples[i].round; j++ {
			t += mw.samples[j].ms
		}
		if j-i == len(d.set.pts) {
			mw.lat = append(mw.lat, t)
		}
		i = j
	}
	host := desHostMS(mw.samples)
	mw.rate = ratio(float64(len(host)), sum(host)/1e3)
	return mw
}

func desHostMS(ss []desSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// allocBurst solves one round back to back; the answers are checked after
// the measurement.
func (d *desBench) allocBurst() (allocs, bytes float64) {
	n := len(d.set.pts)
	xs := make([]*sparse.Panel, n)
	errs := make([]error, n)
	aw := startAllocWindow()
	for i, solver := range d.set.solvers {
		xs[i], _, errs[i] = solver.Solve(d.rhs[d.set.pts[i].matrix])
	}
	allocs, bytes, _ = aw.stop(n)
	for i, x := range xs {
		pt := d.set.pts[i]
		d.res.Attempted++
		if errs[i] != nil {
			d.res.fail(false, fmt.Errorf("%s: %w", pt.id, errs[i]))
		} else if err := d.o.check(d.mats[pt.matrix], x, d.rhs[pt.matrix]); err != nil {
			d.res.fail(true, fmt.Errorf("%s: %w", pt.id, err))
		}
	}
	return allocs, bytes
}

// modeledSums sums the modeled numbers over the configuration set.
func (d *desBench) modeledSums() (secs float64, msgs, bytes int) {
	for _, f := range d.first {
		if f != nil {
			secs, msgs, bytes = secs+f.seconds, msgs+f.msgs, bytes+f.bytes
		}
	}
	return secs, msgs, bytes
}

// summary prints each point's modeled numbers and reports their sums.
func (d *desBench) summary(m map[string]float64) {
	for i, f := range d.first {
		if f != nil {
			fmt.Fprintf(d.o.out, "# %-58s modeled %.6g s, %d messages, %d B\n", d.set.pts[i].id, f.seconds, f.msgs, f.bytes)
		}
	}
	secs, msgs, bytes := d.modeledSums()
	m["runtime.modeled_s"] = secs
	m["runtime.modeled_msgs"] = float64(msgs)
	m["runtime.modeled_bytes"] = float64(bytes)
	m["runtime.msgs_per_solve"] = float64(msgs) / float64(len(d.first))
	m["runtime.bytes_per_solve"] = float64(bytes) / float64(len(d.first))
}

// layers fills des-fig4's per-layer metrics. The simulator runs every rank
// on the calling goroutine, so a simulated solve's host time splits into
// the GEMM replay and everything else (engine, state machines), reported
// as trsv.self_ms; no wall-clock waits exist.
func (d *desBench) layers(m map[string]float64, spans *spanLog, base, traced measured[desSample]) error {
	// Set-up stages of the costliest plan of the set: nlpkkt at 8×8×1,
	// baseline.
	d.op++
	pt := d.set.pts[2]
	stages, err := stageMedians(stageReps(d.o), d.mats[pt.matrix], pt.layout, pt.trees, pt.algo, spans, d.op)
	if err != nil {
		return err
	}
	for k, v := range stages {
		m[k] = v
	}
	// Kernel work per simulated solve, averaged over the set.
	var flops, bytes, ns float64
	for i, p := range d.set.pts {
		d.op++
		k := map[string]float64{}
		kernelLayer(k, d.set.systems[p.matrix].SN, 1, 1, 5, d.o.seed+int64(i), spans, d.op)
		flops += k["sparse.gemm_flops_per_solve"]
		bytes += k["sparse.gemm_bytes_per_solve"]
		ns += k["sparse.gemm_ns_per_solve"]
	}
	n := float64(len(d.set.pts))
	m["sparse.gemm_flops_per_solve"] = flops / n
	m["sparse.gemm_bytes_per_solve"] = bytes / n
	m["sparse.gemm_ns_per_solve"] = ns / n
	m["sparse.gemm_gflops"] = ratio(flops, ns)
	m["sparse.gemm_rank_ms"] = ns / n / 1e6

	m["bench.traced_solve_ms"] = mean(desHostMS(traced.samples))
	m["trsv.self_ms"] = m["bench.traced_solve_ms"] - m["sparse.gemm_rank_ms"]
	if !(m["trsv.self_ms"] >= 0) {
		return fmt.Errorf("the replayed GEMM (%.4g ms) exceeds the traced simulated solve (%.4g ms)",
			m["sparse.gemm_rank_ms"], m["bench.traced_solve_ms"])
	}
	var tasks, cp, waits []float64
	for _, s := range traced.samples {
		r := s.rep.Raw
		w := 0
		for i := range r.Timers {
			w += r.Timers[i].Waits
		}
		waits = append(waits, float64(w))
		if r.Trace == nil {
			continue
		}
		if sw, err := r.LevelSweeps(); err == nil {
			tasks = append(tasks, float64(sw.Tasks))
		}
		if c, err := r.CriticalPath(); err == nil && c.Makespan > 0 {
			cp = append(cp, c.Length/c.Makespan)
		}
	}
	m["trsv.tasks_per_solve"] = mean(tasks)
	m["trsv.ns_per_task"] = ratio(m["trsv.self_ms"]*1e6, m["trsv.tasks_per_solve"])
	m["runtime.critpath_share"] = mean(cp)
	m["runtime.waits_per_solve"] = mean(waits)
	// Host time per modeled message, over the untraced half.
	_, msgs, _ := d.modeledSums()
	baseHost := desHostMS(base.samples)
	m["runtime.sim_us_per_msg"] = ratio(sum(baseHost)*1e3, float64(len(baseHost))*float64(msgs)/n)
	return nil
}

func (d *desBench) close() error { return nil }

package main

import (
	"fmt"
	"io"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// poolSize is the pool workloads' input size and repeat counts.
type poolSize struct {
	nx       int // side of the s2d9pt grid (n = nx²)
	ring     int // distinct right-hand sides cycled through
	warmup   int // untimed solves before measuring
	burst    int // back-to-back solves behind the allocation counts
	replays  int // GEMM replay passes
	traceGap int // every traceGap-th traced-window solve arms the runtime tracer
}

func poolSizeFor(o runOpts) poolSize {
	if o.tiny {
		return poolSize{nx: 12, ring: 2, warmup: 2, burst: 3, replays: 2, traceGap: 2}
	}
	return poolSize{nx: 64, ring: 8, warmup: 32, burst: 40, replays: 15, traceGap: 4}
}

// poolConfig is the pool workloads' solver configuration: the proposed 3D
// algorithm with binary trees on a 1×1×2 layout (two ranks, one per core).
func poolConfig() core.Config {
	return core.Config{
		Layout:    grid.Layout{Px: 1, Py: 1, Pz: 2},
		Algorithm: trsv.Proposed3D,
		Trees:     ctree.Binary,
		Machine:   machine.CoriHaswell(),
		Backend:   trsv.PoolBackend{},
	}
}

// poolBench is one pool workload run.
type poolBench struct {
	o      runOpts
	sz     poolSize
	nrhs   int
	cfg    core.Config
	a      *sparse.CSR
	sys    *core.System
	solver *core.Solver
	rhs    []*sparse.Panel // original ordering
	rhsP   []*sparse.Panel // the same, permuted for the serial reference
	res    *result
	spans  *spanLog // the current window's spans (nil untraced)
	op     int64
	next   int
}

func newPoolBench(o runOpts, res *result, nrhs int) *poolBench {
	sz := poolSizeFor(o)
	return &poolBench{o: o, sz: sz, nrhs: nrhs, cfg: poolConfig(), res: res,
		a: gen.S2D9pt(sz.nx, sz.nx, o.seed)}
}

// sample is one measured library solve.
type sample struct {
	ms     float64
	serial float64 // the serial reference solve of the same right-hand side, ms
	rep    *core.Report
}

// blockLen is how many library solves run back to back before the serial
// reference solves of the same right-hand sides and the checks. Blocks
// keep the pool's goroutines warm, as a caller solving in a loop would,
// while still interleaving the reference at a fine grain.
const blockLen = 8

// solveBlock runs blockLen timed Solves (every traceGap-th traced via
// SolveWith when traceGap > 0), then the serial reference solve of each
// right-hand side, then checks every answer outside the timed intervals.
func (p *poolBench) solveBlock(traceGap int) []sample {
	type call struct {
		i   int
		op  int64
		x   *sparse.Panel
		rep *core.Report
		err error
		ms  float64
	}
	calls := make([]call, blockLen)
	for c := range calls {
		i := p.next % len(p.rhs)
		p.next++
		p.op++
		traced := traceGap > 0 && p.next%traceGap == 0
		s := p.spans.begin("core.Solve", p.op, -1)
		t0 := time.Now()
		var x *sparse.Panel
		var rep *core.Report
		var err error
		if traced {
			x, rep, err = p.solver.SolveWith(p.rhs[i], core.SolveSpec{Trace: true})
		} else {
			x, rep, err = p.solver.Solve(p.rhs[i])
		}
		calls[c] = call{i: i, op: p.op, x: x, rep: rep, err: err, ms: msSince(t0)}
		p.spans.end(s)
	}
	out := make([]sample, 0, blockLen)
	for _, c := range calls {
		s := p.spans.begin("snode.Solve", c.op, -1)
		t0 := time.Now()
		xs := p.sys.SN.Solve(p.rhsP[c.i])
		serial := msSince(t0)
		p.spans.end(s)

		p.res.Attempted++
		if c.err != nil {
			p.res.fail(false, fmt.Errorf("solve: %w", c.err))
			continue
		}
		s = p.spans.begin("bench.check", c.op, -1)
		err := p.o.check(p.a, c.x, p.rhs[c.i])
		if err == nil {
			if err = checkSolution(p.sys.APerm, xs, p.rhsP[c.i]); err != nil {
				err = fmt.Errorf("serial reference: %w", err)
			}
		}
		p.spans.end(s)
		if err != nil {
			p.res.fail(true, err)
			continue
		}
		out = append(out, sample{ms: c.ms, serial: serial, rep: c.rep})
	}
	return out
}

// setup runs the set-up a library caller pays: generated CSR to a ready
// Solver.
func (p *poolBench) setup(spans *spanLog, keep bool) (float64, error) {
	p.op++
	t0 := time.Now()
	sys, solver, err := setupSystem(p.a, p.cfg, spans, p.op)
	secs := time.Since(t0).Seconds()
	if err != nil || !keep {
		return secs, err
	}
	p.sys, p.solver = sys, solver
	for i := 0; i < p.sz.ring; i++ {
		b := seededPanel(p.a.N, p.nrhs, p.o.seed*1000+int64(i))
		p.rhs = append(p.rhs, b)
		p.rhsP = append(p.rhsP, b.PermuteRows(sys.Perm))
	}
	return secs, nil
}

func (p *poolBench) warmup() {
	for i := 0; i < p.sz.warmup; i += blockLen {
		p.solveBlock(0)
	}
}

// window solves in blocks until d has elapsed. The rate counts
// right-hand-side columns per second of Solve time, so the interleaved
// serial reference and the checks do not dilute it.
func (p *poolBench) window(d time.Duration, spans *spanLog) measured[sample] {
	p.spans = spans
	traceGap := 0
	if spans != nil {
		traceGap = p.sz.traceGap
	}
	var mw measured[sample]
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		mw.samples = append(mw.samples, p.solveBlock(traceGap)...)
		mw.panels += blockLen
	}
	for _, s := range mw.samples {
		mw.lat = append(mw.lat, s.ms)
	}
	mw.rate = ratio(float64(p.nrhs*len(mw.lat)), sum(mw.lat)/1e3)
	return mw
}

// allocBurst solves burst right-hand sides back to back; the answers are
// checked after the measurement.
func (p *poolBench) allocBurst() (allocs, bytes float64) {
	xs := make([]*sparse.Panel, p.sz.burst)
	errs := make([]error, p.sz.burst)
	aw := startAllocWindow()
	for i := range xs {
		xs[i], _, errs[i] = p.solver.Solve(p.rhs[i%len(p.rhs)])
	}
	allocs, bytes, _ = aw.stop(p.sz.burst)
	for i, x := range xs {
		p.res.Attempted++
		if errs[i] != nil {
			p.res.fail(false, fmt.Errorf("solve: %w", errs[i]))
		} else if err := p.o.check(p.a, x, p.rhs[i%len(p.rhs)]); err != nil {
			p.res.fail(true, err)
		}
	}
	return allocs, bytes
}

// layers times the set-up stages, replays the GEMMs, and splits the traced
// window's solve time into the ladder.
func (p *poolBench) layers(m map[string]float64, spans *spanLog, base, traced measured[sample]) error {
	p.op++
	stages, err := stageMedians(stageReps(p.o), p.a, p.cfg.Layout, p.cfg.Trees, p.cfg.Algorithm, spans, p.op)
	if err != nil {
		return err
	}
	for k, v := range stages {
		m[k] = v
	}
	p.op++
	ranks := p.cfg.Layout.Size()
	kernelLayer(m, p.sys.SN, p.nrhs, ranks, p.sz.replays, p.o.seed, spans, p.op)

	var serial []float64
	for _, s := range append(append([]sample(nil), base.samples...), traced.samples...) {
		serial = append(serial, s.serial)
	}
	baseP50 := median(base.lat)
	m["snode.serial_ms"] = median(serial)
	m["core.pool_over_serial"] = baseP50 / m["snode.serial_ms"]

	l := ladderOf(traced.samples, m["sparse.gemm_rank_ms"])
	m["bench.traced_solve_ms"] = l.solve
	m["runtime.wait_ms_per_solve"] = l.wait
	m["trsv.self_ms"] = l.trsv
	m["core.unattributed_ms"] = l.unattributed
	m["runtime.waits_per_solve"] = l.waits
	m["runtime.msgs_per_solve"] = l.msgs
	m["runtime.bytes_per_solve"] = l.bytes
	m["runtime.sim_us_per_msg"] = ratio(baseP50*1e3, l.msgs)
	m["trsv.tasks_per_solve"] = l.tasks
	m["trsv.ns_per_task"] = ratio(float64(ranks)*l.trsv*1e6, l.tasks)
	m["runtime.critpath_share"] = l.critpath
	l.print(p.o.out)
	return l.check()
}

func (p *poolBench) summary(map[string]float64) {}

func (p *poolBench) close() error { return nil }

// ladder splits the traced window's mean caller-observed solve time into
// layers, per rank on average: GEMM (replayed), runtime waits, trsv state
// machine and messaging (the rest of the rank's clock), and the part of
// the caller's time no rank clock covers (core set-up and assembly around
// the runtime run), reported as core.unattributed_ms. The parts sum to the
// solve time by construction; what can go wrong is a part going negative,
// which means a measured part (the replayed GEMM, the waits, the rank
// clock) exceeds the time that should contain it.
type ladder struct {
	solve, gemm, wait, trsv, unattributed float64 // ms
	waits, msgs, bytes, tasks             float64 // per solve
	critpath                              float64
}

func ladderOf(ss []sample, gemmMS float64) ladder {
	l := ladder{gemm: gemmMS}
	var clock float64
	var traced, cp []float64
	for _, s := range ss {
		r := s.rep.Raw
		var sumClock, sumWait float64
		var waits int
		for i := range r.Timers {
			sumClock += r.Clocks[i]
			sumWait += r.Timers[i].WaitSeconds
			waits += r.Timers[i].Waits
		}
		ranks := float64(len(r.Clocks))
		l.solve += s.ms
		clock += 1e3 * sumClock / ranks
		l.wait += 1e3 * sumWait / ranks
		l.waits += float64(waits)
		l.msgs += float64(r.TotalMsgs())
		l.bytes += float64(r.TotalBytes())
		if r.Trace != nil {
			if sw, err := r.LevelSweeps(); err == nil {
				traced = append(traced, float64(sw.Tasks))
			}
			if c, err := r.CriticalPath(); err == nil && c.Makespan > 0 {
				cp = append(cp, c.Length/c.Makespan)
			}
		}
	}
	n := float64(len(ss))
	l.solve /= n
	clock /= n
	l.wait /= n
	l.waits /= n
	l.msgs /= n
	l.bytes /= n
	l.tasks = median(traced)
	l.critpath = mean(cp)
	l.trsv = clock - l.wait - l.gemm
	l.unattributed = l.solve - clock
	return l
}

func (l ladder) rows() []ladderRow {
	return []ladderRow{
		{"sparse.gemm_rank_ms", l.gemm},
		{"runtime.wait_ms_per_solve", l.wait},
		{"trsv.self_ms", l.trsv},
		{"core.unattributed_ms", l.unattributed},
	}
}

type ladderRow struct {
	name string
	ms   float64
}

// check fails when a part is negative: the attribution is then wrong.
func (l ladder) check() error {
	for _, r := range l.rows() {
		if !(r.ms >= 0) { // NaN fails too
			return fmt.Errorf("ladder: %s is %.4g ms of a %.4g ms solve; a measured part exceeds the time that contains it", r.name, r.ms, l.solve)
		}
	}
	return nil
}

// print writes the ladder's shares as one table.
func (l ladder) print(w io.Writer) {
	fmt.Fprintf(w, "# ladder of the traced solve (%.4g ms, mean per solve, per rank)\n", l.solve)
	for _, r := range l.rows() {
		fmt.Fprintf(w, "#   %-28s %10.4f ms %7.1f%%\n", r.name, r.ms, 100*r.ms/l.solve)
	}
}

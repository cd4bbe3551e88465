package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/metrics"
	"sptrsv/internal/mtx"
	"sptrsv/internal/reqtrace"
	"sptrsv/internal/server"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// serviceSize is service-mixed's input size and traffic mix. The mix (one
// upload in every 50 operations, each followed by 4 solves on the new
// matrix) is an assumption, not observed traffic; every run prints the
// share of operations and of client-observed service time that uploads
// took, and the traced run reports both.
type serviceSize struct {
	nx          int // side of the s2d9pt grids (resident and uploaded)
	ring        int // distinct right-hand sides per matrix
	uploadEvery int // one operation in every uploadEvery is an upload
	freshSolves int // solves each uploaded matrix receives before the client returns to the resident one
	warmup      int // untimed operations per client before measuring
	replays     int // GEMM replay passes
}

func serviceSizeFor(o runOpts) serviceSize {
	if o.tiny {
		return serviceSize{nx: 12, ring: 2, uploadEvery: 4, freshSolves: 2, warmup: 2, replays: 2}
	}
	return serviceSize{nx: 64, ring: 8, uploadEvery: 50, freshSolves: 4, warmup: 100, replays: 15}
}

// serviceClients is the closed-loop client population: one per core.
const serviceClients = 2

// serviceRanks is the server's rank budget: the default layout is 2×1×1.
const serviceRanks = 2

// service is one running in-process solve service on loopback.
type service struct {
	reg    *metrics.Registry
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
	client *http.Client
}

func startService() (*service, error) {
	reg := metrics.NewRegistry()
	srv, err := server.New(server.Options{
		Backend:    trsv.PoolBackend{},
		Ranks:      serviceRanks,
		MaxHandles: 4, // resident + each client's current upload, with room to spare
		Registry:   reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		reg: reg, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the service, closes the listener and waits for Serve to
// return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// flushes reads the server's coalescer flush count: one panel solve each.
func (s *service) flushes() float64 {
	c := s.reg.Counter("sptrsv_server_coalesce_flushes", "", "reason")
	return c.With("full").Value() + c.With("timer").Value() + c.With("drain").Value()
}

// matrixMarket renders a as a Matrix Market upload body.
func matrixMarket(a *sparse.CSR) []byte {
	var buf bytes.Buffer
	if err := mtx.Write(&buf, a); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// upload posts a Matrix Market body and returns the handle ID.
func (s *service) upload(body []byte) (string, error) {
	resp, err := s.client.Post(s.base+"/v1/matrices", "text/plain", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var info struct {
		Handle string `json:"handle"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", fmt.Errorf("upload: HTTP %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("upload: HTTP %d: %s", resp.StatusCode, info.Error)
	}
	return info.Handle, nil
}

// solveReply is the part of a solve response the benchmark reads.
type solveReply struct {
	X          []float64 `json:"x"`
	BatchWidth int       `json:"batch_width"`
	Error      string    `json:"error"`
}

// panel returns the solution as an n×1 panel.
func (r *solveReply) panel(n int) (*sparse.Panel, error) {
	if len(r.X) != n {
		return nil, fmt.Errorf("solution has %d entries, want %d", len(r.X), n)
	}
	x := sparse.NewPanel(n, 1)
	copy(x.Col(0), r.X)
	return x, nil
}

var errShed = errors.New("shed (HTTP 429)")

// solve posts one solve request and returns the decoded reply and the
// client-observed latency in ms (request sent to body fully read).
func (s *service) solve(handle string, body []byte, reqID string) (*solveReply, float64, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/matrices/"+handle+"/solve", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := msSince(t0)
	if err != nil {
		return nil, ms, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, ms, errShed
	}
	var r solveReply
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, ms, fmt.Errorf("solve: HTTP %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, ms, fmt.Errorf("solve: HTTP %d: %s", resp.StatusCode, r.Error)
	}
	return &r, ms, nil
}

// record fetches a request's stage record from /debug/requests/{id}.
func (s *service) record(id string) (*reqtrace.Record, error) {
	resp, err := s.client.Get(s.base + "/debug/requests/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("record %s: HTTP %d", id, resp.StatusCode)
	}
	var rec reqtrace.Record
	return &rec, json.NewDecoder(resp.Body).Decode(&rec)
}

// complete reports whether rec is a finished OK record carrying every
// stage through encode (the handler stores it just after writing the
// response, so a read-back can race ahead of it).
func complete(rec *reqtrace.Record) bool {
	if rec == nil || rec.Outcome != "ok" {
		return false
	}
	for _, sp := range rec.Spans {
		if sp.Stage == "encode" {
			return true
		}
	}
	return false
}

// svcMatrix is a matrix the clients know: its handle, A, and the
// pre-encoded request bodies of its right-hand sides.
type svcMatrix struct {
	handle string
	a      *sparse.CSR
	rhs    []*sparse.Panel
	bodies [][]byte
}

func newSvcMatrix(a *sparse.CSR, ring int, seed int64) *svcMatrix {
	m := &svcMatrix{a: a}
	for i := 0; i < ring; i++ {
		b := seededPanel(a.N, 1, seed+int64(i))
		body, err := json.Marshal(map[string][]float64{"b": b.Col(0)})
		if err != nil {
			panic(err) // finite floats always marshal
		}
		m.rhs = append(m.rhs, b)
		m.bodies = append(m.bodies, body)
	}
	return m
}

// svcSample is one client-observed request.
type svcSample struct {
	ms     float64
	width  int
	record *reqtrace.Record // traced runs: the server's stage record
}

// svcWindow collects one measurement window's observations.
type svcWindow struct {
	elapsed time.Duration // first request sent to last client done

	mu      sync.Mutex
	solves  []svcSample
	uploads []float64
	shed    int
}

// svcBench is one service-mixed run.
type svcBench struct {
	o        runOpts
	sz       serviceSize
	svc      *service
	resident *svcMatrix
	body     []byte // the resident matrix as a Matrix Market upload
	res      *result
	resMu    sync.Mutex
	spans    *spanLog // the current window's spans (nil untraced)
	ops      atomic.Int64

	// Traffic observed over the measured windows.
	uploads []float64 // upload latencies, ms
	solves  int       // OK solve requests
	solveMS float64   // their summed latency
	shed    int
}

func newSvcBench(o runOpts, res *result) *svcBench {
	sz := serviceSizeFor(o)
	a := gen.S2D9pt(sz.nx, sz.nx, o.seed)
	return &svcBench{o: o, sz: sz, res: res,
		resident: newSvcMatrix(a, sz.ring, o.seed*1000), body: matrixMarket(a)}
}

func (b *svcBench) fail(wrong bool, err error) {
	b.resMu.Lock()
	b.res.fail(wrong, err)
	b.resMu.Unlock()
}

func (b *svcBench) attempt() {
	b.resMu.Lock()
	b.res.Attempted++
	b.resMu.Unlock()
}

// client runs one closed-loop client until the deadline (or for n
// operations when n > 0), recording into w. traced names every request
// with X-Request-ID and reads back its stage record.
func (b *svcBench) client(c int, deadline time.Time, n int, w *svcWindow, traced bool) {
	var fresh *svcMatrix
	freshLeft := 0
	// traced: the previous request's sample, read back on the next
	// iteration (the handler stores its record just after responding).
	pending, pendingID := -1, ""
	readBack := func() {
		if pending < 0 {
			return
		}
		if rec, err := b.svc.record(pendingID); err == nil {
			w.mu.Lock()
			w.solves[pending].record = rec
			w.mu.Unlock()
		}
		pending = -1
	}
	// A client that uploaded finishes the solves it owes the new matrix
	// before it stops, so every run ends with the handle cache in the same
	// state.
	for i := 0; freshLeft > 0 || (n > 0 && i < n) || (n == 0 && time.Now().Before(deadline)); i++ {
		readBack()
		k := b.ops.Add(1)
		op := b.spans.begin("http.op", k, -1)
		if k%int64(b.sz.uploadEvery) == 0 && freshLeft == 0 {
			a := gen.S2D9pt(b.sz.nx, b.sz.nx, b.o.seed*1_000_003+k)
			m := newSvcMatrix(a, 1, b.o.seed*1000+k)
			body := matrixMarket(a)
			b.attempt()
			s := b.spans.begin("http.upload", k, op)
			t0 := time.Now()
			h, err := b.svc.upload(body)
			ms := msSince(t0)
			b.spans.end(s)
			if err != nil {
				b.fail(false, err)
			} else {
				m.handle = h
				fresh, freshLeft = m, b.sz.freshSolves
				w.mu.Lock()
				w.uploads = append(w.uploads, ms)
				w.mu.Unlock()
			}
			b.spans.end(op)
			continue
		}
		target := b.resident
		if freshLeft > 0 {
			target, freshLeft = fresh, freshLeft-1
		}
		j := int(k) % len(target.bodies)
		var reqID string
		if traced {
			reqID = fmt.Sprintf("pb-%d-%d", c, k)
		}
		b.attempt()
		s := b.spans.begin("http.solve", k, op)
		reply, ms, err := b.svc.solve(target.handle, target.bodies[j], reqID)
		b.spans.end(s)
		switch {
		case errors.Is(err, errShed):
			w.mu.Lock()
			w.shed++
			w.mu.Unlock()
		case err != nil:
			b.fail(false, err)
		default:
			chk := b.spans.begin("bench.check", k, op)
			var x *sparse.Panel
			if x, err = reply.panel(target.a.N); err == nil {
				err = b.o.check(target.a, x, target.rhs[j])
			}
			b.spans.end(chk)
			if err != nil {
				b.fail(true, fmt.Errorf("handle %s: %w", target.handle, err))
				break
			}
			w.mu.Lock()
			w.solves = append(w.solves, svcSample{ms: ms, width: reply.BatchWidth})
			if traced {
				pending, pendingID = len(w.solves)-1, reqID
			}
			w.mu.Unlock()
		}
		b.spans.end(op)
	}
	readBack()
}

// run drives every client through one window and waits for them.
func (b *svcBench) run(d time.Duration, n int, traced bool) *svcWindow {
	w := &svcWindow{}
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.client(c, deadline, n, w, traced)
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(t0)
	return w
}

func (w *svcWindow) latencies() []float64 {
	out := make([]float64, len(w.solves))
	for i, s := range w.solves {
		out[i] = s.ms
	}
	return out
}

// setup starts a service, uploads the resident matrix and runs the first
// verified solve: the time a deployment takes to serve. A service not kept
// is stopped again outside the timed interval.
func (b *svcBench) setup(spans *spanLog, keep bool) (float64, error) {
	m := b.resident
	t0 := time.Now()
	k := b.ops.Add(1)
	s := spans.begin("service.start", k, -1)
	svc, err := startService()
	spans.end(s)
	if err != nil {
		return 0, err
	}
	s = spans.begin("http.upload", k, -1)
	h, err := svc.upload(b.body)
	spans.end(s)
	if err == nil {
		s = spans.begin("http.solve", k, -1)
		var reply *solveReply
		reply, _, err = svc.solve(h, m.bodies[0], "")
		spans.end(s)
		var x *sparse.Panel
		if err == nil {
			x, err = reply.panel(m.a.N)
		}
		if err == nil {
			err = checkSolution(m.a, x, m.rhs[0])
		}
	}
	secs := time.Since(t0).Seconds()
	if err != nil || !keep {
		if serr := svc.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stop service: %w", serr)
		}
		return secs, err
	}
	m.handle = h
	b.svc = svc
	return secs, nil
}

func (b *svcBench) close() error {
	if b.svc == nil {
		return nil
	}
	if err := b.svc.stop(); err != nil {
		return fmt.Errorf("stop service: %w", err)
	}
	return nil
}

// warmup runs long enough that the handle cache reaches its steady size.
func (b *svcBench) warmup() {
	b.spans = nil
	b.run(0, b.sz.warmup, false)
}

// window drives both clients for d and records the traffic it saw. The
// rate counts OK solve requests per second of wall time; a traced window
// names every request with X-Request-ID and reads back its stage record.
func (b *svcBench) window(d time.Duration, spans *spanLog) measured[svcSample] {
	b.spans = spans
	f0 := b.svc.flushes()
	w := b.run(d, 0, spans != nil)
	lat := w.latencies()
	b.uploads = append(b.uploads, w.uploads...)
	b.solves += len(lat)
	b.solveMS += sum(lat)
	b.shed += w.shed
	return measured[svcSample]{lat: lat, rate: float64(len(lat)) / w.elapsed.Seconds(),
		panels: b.svc.flushes() - f0, samples: w.solves}
}

// allocBurst runs one traffic-mix period (uploadEvery operations over both
// clients) and returns allocations per operation, process-wide: client,
// server and solver together.
func (b *svcBench) allocBurst() (allocs, bytes float64) {
	b.spans = nil
	a0 := b.res.Attempted
	aw := startAllocWindow()
	b.run(0, b.sz.uploadEvery/serviceClients, false)
	allocs, bytes, _ = aw.stop(max(b.res.Attempted-a0, 1))
	return allocs, bytes
}

// summary prints the traffic mix the windows actually carried, since the
// upload rate and the solves per upload are chosen, not observed traffic,
// and reports it with the upload latency.
func (b *svcBench) summary(m map[string]float64) {
	opShare := ratio(float64(len(b.uploads)), float64(len(b.uploads)+b.solves))
	timeShare := ratio(sum(b.uploads), sum(b.uploads)+b.solveMS)
	m["server.upload_p50_ms"] = median(b.uploads)
	m["server.upload_op_share"] = opShare
	m["server.upload_time_share"] = timeShare
	m["server.shed"] = float64(b.shed)
	fmt.Fprintf(b.o.out, "# traffic: %d uploads, %d OK solve requests, %d shed; uploads are %.2f%% of operations and %.1f%% of client-observed service time\n",
		len(b.uploads), b.solves, b.shed, 100*opShare, 100*timeShare)
}

// layers times the resident matrix's set-up stages, replays its GEMMs, and
// reads the server's stage records of the traced window.
func (b *svcBench) layers(m map[string]float64, spans *spanLog, base, traced measured[svcSample]) error {
	a := b.resident.a
	px, py := grid.Square2D(serviceRanks)
	layout := grid.Layout{Px: px, Py: py, Pz: 1}
	stages, err := stageMedians(stageReps(b.o), a, layout, ctree.Flat, trsv.Proposed3D, spans, b.ops.Add(1))
	if err != nil {
		return err
	}
	for k, v := range stages {
		m[k] = v
	}
	sys, err := core.Factorize(a, core.FactorOptions{TreeDepth: treeDepth})
	if err != nil {
		return err
	}
	kernelLayer(m, sys.SN, 1, serviceRanks, b.sz.replays, b.o.seed, spans, b.ops.Add(1))
	m["bench.traced_solve_ms"] = mean(traced.lat)

	stage := map[string][]float64{}
	var transport, widths []float64
	for _, s := range traced.samples {
		widths = append(widths, float64(s.width))
		if !complete(s.record) {
			continue
		}
		spanSum := 0.0
		for _, sp := range s.record.Spans {
			stage[sp.Stage] = append(stage[sp.Stage], sp.DurS*1e3)
			spanSum += sp.DurS * 1e3
		}
		transport = append(transport, s.ms-spanSum)
	}
	for name, st := range map[string]string{
		"server.decode_ms": "decode", "server.queue_wait_ms": "queue-wait",
		"server.batch_assembly_ms": "batch-assembly", "server.solve_ms": "solve",
		"server.encode_ms": "encode",
	} {
		m[name] = median(stage[st])
	}
	m["server.transport_ms"] = median(transport)
	m["server.batch_width"] = mean(widths)
	fmt.Fprintf(b.o.out, "# traced window: %d solve requests, %d with stage records\n", len(traced.samples), len(transport))
	return nil
}

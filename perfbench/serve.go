package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpushield/internal/service"
)

const (
	serveTenants   = 10 // tenants 0 and 1 (20%) aim out-of-bounds stores at the others
	serveAttackers = 2
	serveElems     = 256 // vecadd length of a benign job
	serveConns     = 2   // keep-alive connections, one per load worker
	spanHeader     = "X-Perfbench-Span"

	// The measuring time is split into two phases. The reference phase
	// offers refRate jobs per second, open loop, about a fifth of what the
	// service completes; p50_ms and p99_ms are read there. The saturation
	// phase is a closed loop: each worker sends its next job as soon as the
	// last one returns, so the completion rate is the highest rate the
	// service sustains (max_rate_rps), with no ceiling set by the
	// generator. Its rates are read per CPU second of the process.
	refRate  = 1000
	refShare = 0.5
)

// serveWorkload is an in-process service.Server behind service.NewHandler on
// loopback, driven by a seeded generator: open loop at the reference rate,
// where each job is timed from when it was due, then closed loop. Benign
// jobs write inputs, launch vecadd, read the output back and compare every
// byte; attacker jobs launch oob-store at other tenants' memory and must be
// blocked.
type serveWorkload struct {
	srv         *service.Server
	cycleBudget uint64
	hs          *http.Server
	serving     sync.WaitGroup
	base        string
	cli         *http.Client
	tr          atomic.Pointer[tracer] // read by the handler wrapper
	tenants     []*serveTenant
}

// serveTenant is one client of the service. When its session has spent half
// its lifetime cycle budget, the tenant closes it and opens a fresh one
// before its next job, so a faster service never runs a tenant out of
// budget.
type serveTenant struct {
	id         int
	session    string
	cyclesLeft uint64
}

func (t *serveTenant) attacker() bool { return t.id < serveAttackers }

// job is one arrival: its due time, its tenant, and the seed of its inputs.
type job struct {
	due    time.Time
	tenant *serveTenant
	seed   int64
}

type jobResult struct {
	latencyMS, latenessMS float64
	err                   error // nil when the job passed its checks
	winstrs, cycles       uint64
	launches              int
	dueS                  float64 // when the job fell due, from the phase's start
}

func (w *serveWorkload) setup(e *env) error {
	cfg := service.DefaultConfig()
	cfg.Seed = e.seed
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return fmt.Errorf("listen: %w", err)
	}
	w.srv = srv
	w.cycleBudget = cfg.CycleBudget
	inner := service.NewHandler(srv)
	w.hs = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		w.tr.Load().timed("http.handler", parent, func() { inner.ServeHTTP(rw, r) })
	})}
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		_ = w.hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	w.base = "http://" + ln.Addr().String()
	w.cli = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
	}}
	w.tenants = nil
	for i := range serveTenants {
		t := &serveTenant{id: i}
		w.tenants = append(w.tenants, t)
		if err := w.openSession(t, nil, 0); err != nil {
			return err
		}
		if r := w.runJob(job{tenant: t, seed: int64(i)}, nil, 0); r.err != nil {
			return fmt.Errorf("warm-up job for tenant %d: %w", i, r.err)
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // closes idle client connections too
	w.serving.Wait()
	_ = w.srv.Drain(ctx)
	w.cli.CloseIdleConnections()
	w.srv = nil
}

// call sends one request inside an "http.request" span; the handler wrapper
// records its "http.handler" span under it.
func (w *serveWorkload) call(tr *tracer, parent int, method, path string, body, out any) error {
	sp := tr.begin("http.request", parent)
	defer tr.end(sp)
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return err
	}
	if sp != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	resp, err := w.cli.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func (w *serveWorkload) openSession(t *serveTenant, tr *tracer, parent int) error {
	var info service.SessionInfo
	if err := w.call(tr, parent, "POST", "/v1/sessions", map[string]string{"tenant": fmt.Sprintf("tenant-%02d", t.id)}, &info); err != nil {
		return err
	}
	t.session = info.ID
	t.cyclesLeft = w.cycleBudget
	bufs := []string{"x", "y", "z"}
	if t.attacker() {
		bufs = []string{"a"}
	}
	for _, b := range bufs {
		if err := w.call(tr, parent, "POST", "/v1/sessions/"+t.session+"/buffers",
			map[string]any{"name": b, "size": serveElems * 4}, nil); err != nil {
			return err
		}
	}
	return nil
}

// runJob runs one job to completion and checks its outputs.
func (w *serveWorkload) runJob(j job, tr *tracer, parent int) (r jobResult) {
	t := j.tenant
	fail := func(err error) jobResult {
		r.err = err
		return r
	}
	if t.cyclesLeft < w.cycleBudget/2 {
		if err := w.call(tr, parent, "DELETE", "/v1/sessions/"+t.session, nil, nil); err != nil {
			return fail(err)
		}
		if err := w.openSession(t, tr, parent); err != nil {
			return fail(err)
		}
	}
	sess := "/v1/sessions/" + t.session
	rng := rand.New(rand.NewSource(j.seed))
	var res service.LaunchResult
	if t.attacker() {
		// A pointed store up to 16 KB past the attacker's 1 KB buffer,
		// into the neighbouring tenants' allocations.
		idx := int64(serveElems + rng.Intn(4096))
		spec := service.LaunchSpec{Kernel: "oob-store", Grid: 1, Block: 32,
			Args: []service.ArgSpec{service.Buf("a"), service.Scalar(idx)}}
		if err := w.call(tr, parent, "POST", sess+"/launch", spec, &res); err != nil {
			return fail(err)
		}
		r.winstrs, r.cycles, r.launches = res.WarpInstrs, res.Cycles, 1
		t.cyclesLeft = res.CyclesLeft
		if res.Violations == 0 || res.Aborted {
			return fail(fmt.Errorf("oob-store at index %d: %d violations, aborted %v", idx, res.Violations, res.Aborted))
		}
		return r
	}
	xs, ys, want := make([]byte, serveElems*4), make([]byte, serveElems*4), make([]byte, serveElems*4)
	for i := range serveElems {
		x, y := rng.Uint32(), rng.Uint32()
		binary.LittleEndian.PutUint32(xs[i*4:], x)
		binary.LittleEndian.PutUint32(ys[i*4:], y)
		binary.LittleEndian.PutUint32(want[i*4:], x+y)
	}
	for _, in := range []struct {
		name string
		data []byte
	}{{"x", xs}, {"y", ys}} {
		if err := w.call(tr, parent, "POST", sess+"/buffers/"+in.name+"/write",
			map[string]any{"offset": 0, "data": in.data}, nil); err != nil {
			return fail(err)
		}
	}
	spec := service.LaunchSpec{Kernel: "vecadd", Grid: 1, Block: serveElems,
		Args: []service.ArgSpec{service.Buf("x"), service.Buf("y"), service.Buf("z"), service.Scalar(serveElems)}}
	if err := w.call(tr, parent, "POST", sess+"/launch", spec, &res); err != nil {
		return fail(err)
	}
	r.winstrs, r.cycles, r.launches = res.WarpInstrs, res.Cycles, 1
	t.cyclesLeft = res.CyclesLeft
	if res.Violations > 0 || res.Aborted {
		return fail(errors.New("benign launch flagged"))
	}
	var read struct {
		Data []byte `json:"data"`
	}
	if err := w.call(tr, parent, "POST", sess+"/buffers/z/read", map[string]any{"offset": 0, "n": serveElems * 4}, &read); err != nil {
		return fail(err)
	}
	if !bytes.Equal(read.Data, want) {
		return fail(errors.New("vecadd output read back differs from x+y"))
	}
	return r
}

// schedule lays out the reference phase's arrivals at a constant rate per
// second over d. Arrival k goes to worker k%serveConns, and its tenant is
// drawn from that worker's tenants, so each worker sees a constant rate too.
func (w *serveWorkload) schedule(rng *rand.Rand, start time.Time, rate float64, d time.Duration) []job {
	var jobs []job
	for k := 0; float64(k) < rate*d.Seconds(); k++ {
		jobs = append(jobs, job{
			due:    start.Add(time.Duration(float64(k) / rate * float64(time.Second))),
			tenant: w.workerTenant(rng, k%serveConns),
			seed:   rng.Int63(),
		})
	}
	return jobs
}

// workerTenant draws one of worker wk's tenants. Each tenant belongs to one
// worker, so a tenant's jobs run in order.
func (w *serveWorkload) workerTenant(rng *rand.Rand, wk int) *serveTenant {
	return w.tenants[rng.Intn(len(w.tenants)/serveConns)*serveConns+wk]
}

// phase is the outcome of one phase: its jobs in the order they finished,
// and how long it ran in wall time and in process CPU time.
type phase struct {
	results    []jobResult
	seconds    float64
	cpuSeconds float64
}

// timedJob runs j inside a "job" span.
func (w *serveWorkload) timedJob(j job, tr *tracer) jobResult {
	sp := tr.begin("job", 0)
	r := w.runJob(j, tr, sp)
	tr.end(sp)
	return r
}

// runReference plays the reference phase: jobs fall due at refRate per
// second for d and each is sent when due or, if its worker is still busy,
// as soon as the worker is free.
func (w *serveWorkload) runReference(rng *rand.Rand, d time.Duration, tr *tracer) phase {
	start := time.Now().Add(5 * time.Millisecond)
	jobs := w.schedule(rng, start, refRate, d)
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	for wk := range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for k := wk; k < len(jobs); k += serveConns {
				j := jobs[k]
				time.Sleep(time.Until(j.due))
				began := time.Now()
				r := w.timedJob(j, tr)
				end := time.Now()
				r.latencyMS = float64(end.Sub(j.due).Nanoseconds()) / 1e6
				// How late the generator sent a job it was free to send.
				r.latenessMS = float64(began.Sub(maxTime(j.due, free)).Nanoseconds()) / 1e6
				r.dueS = j.due.Sub(start).Seconds()
				free = end
				mu.Lock()
				ph.results = append(ph.results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.seconds = time.Since(start).Seconds()
	return ph
}

// runSaturation plays the closed-loop phase for d: each worker sends a job
// of one of its tenants as soon as its previous job returns. Jobs still
// running at the end finish and count.
func (w *serveWorkload) runSaturation(rng *rand.Rand, d time.Duration, tr *tracer) phase {
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	start, c0 := time.Now(), cpuSeconds()
	stop := start.Add(d)
	for wk := range serveConns {
		wrng := rand.New(rand.NewSource(rng.Int63()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				r := w.timedJob(job{tenant: w.workerTenant(wrng, wk), seed: wrng.Int63()}, tr)
				mu.Lock()
				ph.results = append(ph.results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.seconds, ph.cpuSeconds = time.Since(start).Seconds(), cpuSeconds()-c0
	return ph
}

// windowedP99 is the median, over consecutive windows of the reference
// phase that each hold windowJobs jobs (ten beyond their p99), of each
// window's p99, so that one stall of the host does not set the figure.
// A failed job counts as missing any latency limit.
func windowedP99(ph phase) float64 {
	const windowJobs = 1000
	width := math.Max(1, math.Ceil(windowJobs/refRate))
	byWindow := map[int][]float64{}
	for _, r := range ph.results {
		l := r.latencyMS
		if r.err != nil {
			l = math.Inf(1)
		}
		w := int(r.dueS / width)
		byWindow[w] = append(byWindow[w], l)
	}
	var p99s []float64
	for _, ls := range byWindow {
		p99s = append(p99s, percentile(ls, 0.99))
	}
	return median(p99s)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func (w *serveWorkload) measure(e *env, tr *tracer) (*tally, error) {
	t := newTally()
	t.primary = "max_rate_rps"
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	rng := rand.New(rand.NewSource(e.seed))
	before := w.srv.Snapshot()
	refDur := time.Duration(refShare * float64(e.seconds))
	ref := w.runReference(rng, refDur, tr)
	sat := w.runSaturation(rng, e.seconds-refDur, tr)
	var lateness, lat []float64
	var winstrs, cycles, launches float64
	for _, p := range []struct {
		name string
		ph   phase
	}{{"reference", ref}, {"saturation", sat}} {
		for _, r := range p.ph.results {
			t.attempted++
			winstrs += float64(r.winstrs)
			cycles += float64(r.cycles)
			launches += float64(r.launches)
			if r.err != nil {
				t.fail("serve: job in the %s phase: %v", p.name, r.err)
			}
		}
	}
	for _, r := range ref.results {
		lateness = append(lateness, r.latenessMS)
		if r.err != nil {
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, r.latencyMS)
		}
	}
	after := w.srv.Snapshot()
	if after.CrossTenant == before.CrossTenant {
		t.fail("serve: attackers ran but no cross-tenant access was blocked")
	}
	// The saturation phase's rates are per CPU second of the process,
	// load generator included: its wall-clock rate also counts the time the
	// host left the CPUs idle between hand-offs, which varies from run to
	// run with the host's load (see README.md).
	var satOK, satWinstrs float64
	for _, r := range sat.results {
		if r.err == nil {
			satOK++
			satWinstrs += float64(r.winstrs)
		}
	}
	fmt.Fprintf(os.Stderr, "serve: reference %d jobs at %d/s, p50 %.2f ms; saturation %d jobs, %.0f/s wall, %.0f per CPU second\n",
		len(ref.results), refRate, percentile(lat, 0.50), len(sat.results), satOK/sat.seconds, satOK/sat.cpuSeconds)
	t.instrs = winstrs
	t.e2e["winstr_per_s"] = satWinstrs / sat.cpuSeconds
	t.e2e["cases_per_s"] = satOK / sat.cpuSeconds
	t.e2e["max_rate_rps"] = t.e2e["cases_per_s"]
	t.e2e["p50_ms"] = percentile(lat, 0.50)
	t.e2e["p99_ms"] = windowedP99(ref)

	l := t.layer
	l["sim.winstrs"] = winstrs
	l["sim.cycles"] = cycles
	l["driver.launches"] = launches
	l["service.launches"] = float64(after.Launches - before.Launches)
	l["service.shed_429"] = float64(after.ShedQuota - before.ShedQuota)
	l["service.shed_503"] = float64(after.ShedOverload - before.ShedOverload)
	l["service.cross_tenant_blocked"] = float64(after.CrossTenant - before.CrossTenant)
	l["loadgen.lateness_ms_p99"] = percentile(lateness, 0.99)
	return t, nil
}

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/rest"
	"azurebench/internal/sdk"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/workload"
)

const (
	liveClients   = 2
	liveKeys      = 2000
	liveBodySize  = 1024
	liveTable     = "PerfBench"
	liveContainer = "perfbench"
	// liveWindow is the number of SDK calls per wall_s/cpu_s window.
	liveWindow = 1000
)

func liveQueue(client int) string { return fmt.Sprintf("perfbench-q%d", client) }

// liveBlob names one of 16 blobs each client cycles through.
func liveBlob(client, i int) string { return fmt.Sprintf("c%d-b%02d", client, i%16) }

// liveBytes returns the 1 KB body identified by (seed, stream, n).
func liveBytes(seed int64, stream int, n int64) []byte {
	h := fnv.New64a()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(stream))
	binary.LittleEndian.PutUint64(b[16:], uint64(n))
	h.Write(b[:])
	return payload.Synthetic(h.Sum64(), liveBodySize).Materialize()
}

// liveKey is key k's partition and row key.
func liveKey(k int) (pk, rk string) { return fmt.Sprintf("p%02d", k%20), fmt.Sprintf("r%05d", k) }

// liveEntity is key k at version v: its body is a function of both, and
// v is stored beside it so a reader can check what it got.
func liveEntity(seed int64, k int, v int64) *tablestore.Entity {
	pk, rk := liveKey(k)
	return &tablestore.Entity{
		PartitionKey: pk,
		RowKey:       rk,
		Props: map[string]tablestore.Value{
			"v":    tablestore.Int64(v),
			"data": tablestore.Binary(payload.Bytes(liveBytes(seed, k, v))),
		},
	}
}

// The op mix: 60% table Get, 15% table Replace, 15% queue
// Put->Get->Delete, 10% blob Upload->Download.
type mixOp int

const (
	mixTableGet mixOp = iota
	mixTableReplace
	mixQueue
	mixBlob
)

func pickLiveOp(r *sim.Rand) mixOp {
	switch u := r.Intn(100); {
	case u < 60:
		return mixTableGet
	case u < 75:
		return mixTableReplace
	case u < 90:
		return mixQueue
	}
	return mixBlob
}

// SDK calls, one latency series each.
const (
	opTableGet = iota
	opTableReplace
	opQueuePut
	opQueueGet
	opQueueDelete
	opBlobUpload
	opBlobDownload
	numLiveOps
)

var liveOpNames = [numLiveOps]string{
	"table_get", "table_replace", "queue_put", "queue_get", "queue_delete", "blob_upload", "blob_download",
}

// requestOp maps a request to the SDK call that sent it, or -1.
func requestOp(r *http.Request) int {
	switch {
	case strings.HasPrefix(r.URL.Path, "/table/"):
		switch r.Method {
		case http.MethodGet:
			return opTableGet
		case http.MethodPut:
			return opTableReplace
		}
	case strings.HasPrefix(r.URL.Path, "/queue/"):
		switch r.Method {
		case http.MethodPost:
			return opQueuePut
		case http.MethodGet:
			return opQueueGet
		case http.MethodDelete:
			return opQueueDelete
		}
	case strings.HasPrefix(r.URL.Path, "/blob/"):
		switch r.Method {
		case http.MethodPut:
			return opBlobUpload
		case http.MethodGet:
			return opBlobDownload
		}
	}
	return -1
}

// restRecorder times (*rest.Server).ServeHTTP per SDK call kind: the
// server-side span of the traced run.
type restRecorder struct {
	next http.Handler
	mu   sync.Mutex
	lat  [numLiveOps]latHist
}

func (h *restRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	if op := requestOp(r); op >= 0 {
		h.mu.Lock()
		h.lat[op].add(d)
		h.mu.Unlock()
	}
}

// liveEnv is one in-process server with the workload's data preloaded.
type liveEnv struct {
	seed int64
	srv  *rest.Server
	ts   *httptest.Server
	rec  *restRecorder // nil when untraced
	// Each key has one writer (client k % liveClients). committed is the
	// last version whose Replace returned; started the last one sent. A
	// Get must return a version between committed at its start and
	// started at its end, with that version's bytes.
	committed, started []atomic.Int64
}

func newHTTPClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	// The timeout turns a hung call into a failed op.
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}, tr
}

// startLive starts a server (throttle off) on loopback and preloads the
// table, the clients' queues and the blob container.
func startLive(seed int64, traced bool) (*liveEnv, error) {
	env := &liveEnv{
		seed:      seed,
		srv:       rest.NewServer(rest.Options{}),
		committed: make([]atomic.Int64, liveKeys),
		started:   make([]atomic.Int64, liveKeys),
	}
	var h http.Handler = env.srv
	if traced {
		env.rec = &restRecorder{next: env.srv}
		h = env.rec
	}
	env.ts = httptest.NewServer(h)
	hc, tr := newHTTPClient()
	defer tr.CloseIdleConnections()
	admin := sdk.New(env.ts.URL, hc, sdk.DefaultRetryPolicy())
	err := admin.Table().Create(liveTable)
	for c := 0; c < liveClients && err == nil; c++ {
		err = admin.Queue().Create(liveQueue(c))
	}
	if err == nil {
		err = admin.Blob().CreateContainer(liveContainer)
	}
	for k := 0; k < liveKeys && err == nil; k++ {
		_, err = admin.Table().Insert(liveTable, liveEntity(seed, k, 0))
	}
	if err != nil {
		env.close()
		return nil, fmt.Errorf("live set-up: %w", err)
	}
	return env, nil
}

func (env *liveEnv) close() { env.ts.Close() }

// mark is the time and process CPU at a window boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// windows records a mark every liveWindow SDK calls.
type windows struct {
	n     atomic.Int64
	mu    sync.Mutex
	marks []mark
}

func (w *windows) tick() {
	if w.n.Add(1)%liveWindow == 0 {
		m := mark{time.Now(), cpuTime()}
		w.mu.Lock()
		w.marks = append(w.marks, m)
		w.mu.Unlock()
	}
}

// liveClient is one closed-loop client on its own connection.
type liveClient struct {
	id    int
	env   *liveEnv
	c     *sdk.Client
	tr    *http.Transport
	rng   *sim.Rand
	zipf  *workload.Zipf
	win   *windows
	start time.Time
	lat   [numLiveOps]latHist
	// bySec holds every call's latency by the second of the phase it
	// started in, for lat_p99_us.
	bySec  []*latHist
	failed int64
	seq    int64
}

// call times one SDK call; an error counts as a failed op.
func (c *liveClient) call(op int, f func() error) bool {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	c.lat[op].add(d)
	sec := int(t0.Sub(c.start) / time.Second)
	for len(c.bySec) <= sec {
		c.bySec = append(c.bySec, &latHist{})
	}
	c.bySec[sec].add(d)
	c.win.tick()
	return c.check(liveOpNames[op], err)
}

// check counts a failed call or output check, and reports whether the
// op succeeded.
func (c *liveClient) check(what string, err error) bool {
	if err == nil {
		return true
	}
	if c.failed < 5 {
		fmt.Printf("# client %d %s: %v\n", c.id, what, err)
	}
	c.failed++
	return false
}

func (c *liveClient) run(deadline time.Time) {
	seed := c.env.seed
	for time.Now().Before(deadline) {
		c.seq++
		switch pickLiveOp(c.rng) {
		case mixTableGet:
			k := c.zipf.Next(liveKeys)
			pk, rk := liveKey(k)
			lo := c.env.committed[k].Load()
			var got *tablestore.Entity
			if !c.call(opTableGet, func() (err error) {
				got, err = c.c.Table().Get(liveTable, pk, rk)
				return err
			}) {
				continue
			}
			v, hi := got.Props["v"].I, c.env.started[k].Load()
			if v < lo || v > hi {
				c.check("table_get", fmt.Errorf("key %d: version %d outside [%d, %d]", k, v, lo, hi))
				continue
			}
			c.check("table_get", checkEntity(got, nil, liveEntity(seed, k, v)))
		case mixTableReplace:
			k := c.zipf.Next(liveKeys)
			if k%liveClients != c.id {
				k ^= 1 // the neighbouring key this client writes
			}
			v := c.env.committed[k].Load() + 1
			c.env.started[k].Store(v)
			if c.call(opTableReplace, func() error {
				_, err := c.c.Table().Replace(liveTable, liveEntity(seed, k, v), storecommon.ETagAny)
				return err
			}) {
				c.env.committed[k].Store(v)
			}
		case mixQueue:
			q := liveQueue(c.id)
			body := liveBytes(seed, -1-c.id, c.seq)
			if !c.call(opQueuePut, func() error { return c.c.Queue().Put(q, body, 0) }) {
				continue
			}
			var msgs []sdk.Message
			if !c.call(opQueueGet, func() (err error) {
				msgs, err = c.c.Queue().Get(q, 1, 30*time.Second)
				return err
			}) {
				continue
			}
			if len(msgs) != 1 {
				c.check("queue_get", fmt.Errorf("got %d messages, want 1", len(msgs)))
				continue
			}
			if !bytes.Equal(msgs[0].Body, body) {
				c.check("queue_get", errMismatch)
			}
			c.call(opQueueDelete, func() error { return c.c.Queue().DeleteMessage(q, msgs[0].ID, msgs[0].PopReceipt) })
		case mixBlob:
			name := liveBlob(c.id, int(c.seq))
			body := liveBytes(seed, -100-c.id, c.seq)
			if !c.call(opBlobUpload, func() error { return c.c.Blob().Upload(liveContainer, name, body) }) {
				continue
			}
			var got []byte
			if c.call(opBlobDownload, func() (err error) {
				got, err = c.c.Blob().Download(liveContainer, name)
				return err
			}) && !bytes.Equal(got, body) {
				c.check("blob_download", errMismatch)
			}
		}
	}
}

// livePhase is one measured phase: every client's latencies and counts.
type livePhase struct {
	calls, failed int64
	elapsed, cpu  time.Duration
	lat           [numLiveOps]latHist
	all           latHist
	bySec         []*latHist
	marks         []mark
	retries       int64
	backoff       time.Duration
}

// measure drives the clients against env for seconds.
func measure(env *liveEnv, seconds float64) *livePhase {
	win := &windows{}
	clients := make([]*liveClient, liveClients)
	for i := range clients {
		hc, tr := newHTTPClient()
		rng := sim.NewRand(env.seed*liveClients + int64(i) + 1)
		clients[i] = &liveClient{
			id: i, env: env, tr: tr, rng: rng, zipf: workload.NewZipf(rng, 0.99), win: win,
			c: sdk.New(env.ts.URL, hc, sdk.DefaultRetryPolicy()),
		}
	}
	start, cpu0 := time.Now(), cpuTime()
	win.marks = append(win.marks, mark{start, cpu0})
	for _, c := range clients {
		c.start = start
	}
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *liveClient) {
			defer wg.Done()
			c.run(deadline)
		}(c)
	}
	wg.Wait()
	ph := &livePhase{elapsed: time.Since(start), cpu: cpuTime() - cpu0, marks: win.marks}
	for _, c := range clients {
		c.tr.CloseIdleConnections()
		ph.failed += c.failed
		for op := range c.lat {
			ph.lat[op].merge(&c.lat[op])
			ph.all.merge(&c.lat[op])
		}
		for sec, h := range c.bySec {
			for len(ph.bySec) <= sec {
				ph.bySec = append(ph.bySec, &latHist{})
			}
			ph.bySec[sec].merge(h)
		}
		r, b := c.c.RetryStats()
		ph.retries += r
		ph.backoff += b
	}
	ph.calls = int64(ph.all.n)
	return ph
}

// p99 returns the median over the phase's whole seconds of each
// second's 99th-percentile call latency, in microseconds, and the number
// of seconds. A second holds thousands of calls, so each p99 has tens of
// samples beyond it, and the median keeps one stalled second from
// setting the run's figure.
func (ph *livePhase) p99() (float64, int) {
	var p99s []float64
	for sec, h := range ph.bySec {
		if float64(sec+1) > ph.elapsed.Seconds() {
			break // the last, partial second
		}
		p99s = append(p99s, h.quantile(0.99))
	}
	return median(p99s), len(p99s)
}

func (ph *livePhase) opsPerSec() float64 { return float64(ph.calls) / ph.elapsed.Seconds() }

// windowMedians returns the median wall and CPU seconds per liveWindow
// calls over the phase's complete windows.
func (ph *livePhase) windowMedians() (wall, cpu float64) {
	marks := append([]mark(nil), ph.marks...)
	sort.Slice(marks, func(i, j int) bool { return marks[i].at.Before(marks[j].at) })
	var walls, cpus []float64
	for i := 1; i < len(marks); i++ {
		walls = append(walls, marks[i].at.Sub(marks[i-1].at).Seconds())
		cpus = append(cpus, (marks[i].cpu - marks[i-1].cpu).Seconds())
	}
	return median(walls), median(cpus)
}

func runLive(o options) (*result, error) {
	res := &result{Correct: true}
	setups := 5
	if o.trace {
		setups = 1
	}
	var env *liveEnv
	var setup []float64
	for i := 0; i < setups; i++ {
		if env != nil {
			// Collect the previous server before starting the next so the
			// set-ups do not stack up in peak_rss_mb.
			env.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if env, err = startLive(o.seed, false); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	if !o.trace {
		ph := measure(env, o.seconds)
		env.close()
		res.Attempted, res.Failed = ph.calls, ph.failed
		wall, cpu := ph.windowMedians()
		res.set("setup_s", "s", median(setup))
		res.set("wall_s", "s", wall)
		res.set("cpu_s", "s", cpu)
		res.set("peak_rss_mb", "MB", peakRSSMB())
		res.set("ops_per_s", "1/s", ph.opsPerSec())
		res.set("cpu_us_per_op", "us", float64(ph.cpu.Microseconds())/float64(ph.calls))
		res.set("lat_p50_us", "us", ph.all.quantile(0.5))
		p99, secs := ph.p99()
		res.set("lat_p99_us", "us", p99)
		fmt.Printf("# live-mixed: %d SDK calls in %.2fs; p50 over %d samples, p99 the median of %d one-second p99s; %d windows of %d calls; set-up s %.3f\n",
			ph.calls, ph.elapsed.Seconds(), ph.calls, secs, len(ph.marks)-1, liveWindow, setup)
		return res, nil
	}

	// Traced: an untraced baseline, then a fresh server behind the
	// timing handler under a CPU profile, then the engine-direct replay.
	base := measure(env, 0.4*o.seconds)
	env.close()
	tenv, err := startLive(o.seed, true)
	if err != nil {
		return nil, err
	}
	before := restCounts(tenv.srv)
	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		tenv.close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ph := measure(tenv, 0.4*o.seconds)
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	tenv.close()
	after := restCounts(tenv.srv)
	res.Attempted = base.calls + ph.calls
	res.Failed = base.failed + ph.failed

	if err := setCPUFractions(res, prof.Bytes()); err != nil {
		return nil, err
	}
	res.set("trace.overhead_frac", "ratio", base.opsPerSec()/ph.opsPerSec()-1)
	setRuntime(res, rt0, rt1, float64(ph.calls), float64(ph.calls)/liveWindow)
	res.set("cloud.ops", "count", 0)
	res.set("cloud.retries", "count", 0)
	res.set("cloud.busy_rejects", "count", 0)
	setLiveLayers(res, &liveLayers{phase: ph, rest: &tenv.rec.lat, before: before, after: after})
	er := liveEngine(o.seed)
	res.Attempted += er.attempted
	res.Failed += er.failed
	setEngine(res, er)
	return res, nil
}

// restCounts sums the server's request, error and throttle counters.
func restCounts(srv *rest.Server) [3]uint64 {
	var c [3]uint64
	for _, e := range srv.MetricsSnapshot() {
		c[0] += e.Count
		c[1] += e.Errors
		c[2] += e.Throttled
	}
	return c
}

// liveLayers is what the traced live phase measured per layer.
type liveLayers struct {
	phase         *livePhase
	rest          *[numLiveOps]latHist
	before, after [3]uint64
}

// setLiveLayers reports the SDK, REST and transport spans per call kind
// and the server and SDK counters; all 0 when l is nil (sim workloads).
func setLiveLayers(res *result, l *liveLayers) {
	for op, name := range liveOpNames {
		var sdkP50, restP50 float64
		if l != nil {
			sdkP50 = l.phase.lat[op].quantile(0.5)
			restP50 = l.rest[op].quantile(0.5)
		}
		res.set("sdk."+name+".p50_us", "us", sdkP50)
		res.set("rest."+name+".p50_us", "us", restP50)
		res.set("transport."+name+".p50_us", "us", sdkP50-restP50)
	}
	var counts [3]float64
	var retries, backoffMS float64
	if l != nil {
		for i := range counts {
			counts[i] = float64(l.after[i] - l.before[i])
		}
		retries = float64(l.phase.retries)
		backoffMS = float64(l.phase.backoff.Microseconds()) / 1e3
	}
	res.set("rest.requests", "count", counts[0])
	res.set("rest.errors", "count", counts[1])
	res.set("rest.throttled", "count", counts[2])
	res.set("sdk.retries", "count", retries)
	res.set("sdk.backoff_ms", "ms", backoffMS)
}

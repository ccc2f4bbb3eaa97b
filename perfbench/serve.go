package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"centurion/internal/experiments"
	"centurion/internal/server"
)

// serveModels are the schemes the serve-mixed clients ask for.
var serveModels = []string{"none", "ni", "ffw"}

// serveFaults are the fault counts each fresh seed is asked for, in order:
// the faulted variants fork from the warm-start prefix at 500 ms.
var serveFaults = []int{0, 8, 32}

// serveDigestMisses is how many fresh requests per client form the
// workload's fixed reference set.
var serveDigestMisses = len(serveFaults)

// jobIndex links the benchmark's own request to the server's executor
// call and the worker's execute call for the same canonical spec key.
type jobIndex struct {
	mu   sync.Mutex
	jobs map[string]*jobTrace
}

type jobTrace struct {
	req       string
	reqSpan   uint64
	execSpan  uint64
	execStart time.Time
	execEnd   time.Time
}

func newJobIndex() *jobIndex { return &jobIndex{jobs: make(map[string]*jobTrace)} }

// open registers a request for key.
func (x *jobIndex) open(key, req string, reqSpan uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.jobs[key] = &jobTrace{req: req, reqSpan: reqSpan}
}

// get returns a copy of key's record (zero when unknown).
func (x *jobIndex) get(key string) jobTrace {
	x.mu.Lock()
	defer x.mu.Unlock()
	if j := x.jobs[key]; j != nil {
		return *j
	}
	return jobTrace{}
}

func (x *jobIndex) update(key string, f func(*jobTrace)) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if j := x.jobs[key]; j != nil {
		f(j)
	}
}

// tracedExecutor wraps the server's executor in a server.exec span. When
// perWindow is set the executor runs locally and reports every window, so
// the run is also split into set-up, simulation and reduction.
func (e *env) tracedExecutor(inner server.Executor, jobs *jobIndex, perWindow bool) server.Executor {
	return func(ctx context.Context, spec server.RunSpec, progress func(server.Sample)) (*server.RunResult, error) {
		key := spec.CanonicalKey()
		id := e.tr.id()
		c := newRunClock()
		jobs.update(key, func(j *jobTrace) { j.execSpan, j.execStart = id, c.call })
		onSample := progress
		if perWindow {
			onSample = func(s server.Sample) {
				c.window(s.Throughput)
				if progress != nil {
					progress(s)
				}
			}
		}
		res, err := inner(ctx, spec, onSample)
		end := time.Now()
		jobs.update(key, func(j *jobTrace) { j.execEnd = end })
		jt := jobs.get(key)
		if perWindow {
			c.finish(e.tr, id, jt.req, end, spec.Width*spec.Height, spec.WindowMs, err != nil)
		}
		e.tr.record(id, jt.reqSpan, jt.req, "server.exec", c.call, end, err != nil)
		e.tr.sample("server.exec_ms", ms(end.Sub(c.call)))
		return res, err
	}
}

// serveClient is one closed-loop caller's deterministic request stream.
// It alternates hot and fresh requests and cycles the fresh seeds through
// the models, so every seed gives the same mix and only the seeds differ.
type serveClient struct {
	rng    *rand.Rand
	hot    []server.RunSpec
	id     int
	seed   uint64
	sent   int
	fresh  int // fresh requests issued so far
	nextID uint64
}

// next returns the client's next spec and whether it is a fresh one.
func (c *serveClient) next(durMs int) (server.RunSpec, bool) {
	c.sent++
	if c.sent%2 == 1 {
		return c.hot[c.rng.IntN(len(c.hot))], false
	}
	n := c.fresh / len(serveFaults)
	s := server.RunSpec{
		Model:      serveModels[(n+c.id)%len(serveModels)],
		Seed:       c.seed*1_000_000 + uint64(c.id)*100_000 + uint64(n) + 1,
		DurationMs: durMs,
	}
	if k := serveFaults[c.fresh%len(serveFaults)]; k > 0 {
		s.FaultAtMs, s.NumFaults = durMs/2, k
	}
	c.fresh++
	return s, true
}

// serveSample is one finished request as its client saw it.
type serveSample struct {
	ms    float64
	ok    bool
	hit   bool
	bytes int
	key   string
	sum   [sha256.Size]byte // of the result, for the hit/miss comparison
}

// runServeMixed drives default server.New options over loopback HTTP with
// one closed-loop client per CPU. Half the requests repeat a small hot set
// (LRU hits after their first answer); the rest are fresh seeds,
// each asked for at 0, 8 and 32 faults, so the faulted ones fork from a
// warm-start prefix.
func runServeMixed(e *env) (*report, error) {
	r := &report{}
	var srv *server.Server
	var ts *httptest.Server
	client := &http.Client{Timeout: 2 * time.Minute}
	setup, err := setupMedian(e.sz.setupReps, func(last bool) error {
		srv = server.New(server.Options{})
		ts = httptest.NewServer(srv)
		// The first platform build of each model's pool.
		for _, m := range serveModels {
			spec := server.RunSpec{Model: m, Seed: 1<<40 + 1, DurationMs: 10}
			if _, err := postRun(client, ts.URL, spec); err != nil {
				ts.Close()
				srv.Close()
				return err
			}
		}
		if !last {
			ts.Close()
			srv.Close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.setupS = setup
	defer func() {
		ts.Close()
		srv.Close()
	}()
	experiments.ResetWarmStart()

	jobs := newJobIndex()
	if e.tr != nil {
		srv.Engine().SetExecutor(e.tracedExecutor(server.NewDispatchExecutor(srv.Coordinator()), jobs, true))
	}
	hot := make([]server.RunSpec, e.sz.serveHot)
	for i := range hot {
		hot[i] = server.RunSpec{Model: serveModels[i%len(serveModels)], Seed: e.seed*1_000_000 + 900_001 + uint64(i), DurationMs: e.sz.serveMs}
		if i%2 == 1 {
			hot[i].FaultAtMs, hot[i].NumFaults = e.sz.serveMs/2, serveFaults[1]
		}
	}

	before := readCaches()
	cacheBefore := srv.Engine().Stats().Cache
	var queuedMax atomic.Int64
	nclients := runtime.NumCPU()
	samples := make([][]serveSample, nclients)
	refs := make([][]json.RawMessage, nclients)
	errs := make([]error, nclients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := e.deadline(start)
	for ci := 0; ci < nclients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &serveClient{rng: rand.New(rand.NewPCG(e.seed, uint64(ci))), hot: hot, id: ci, seed: e.seed}
			for time.Now().Before(deadline) || c.fresh < serveDigestMisses {
				spec, fresh := c.next(e.sz.serveMs)
				canon := spec
				if err := canon.Canonicalize(); err != nil {
					errs[ci] = err
					return
				}
				key := canon.CanonicalKey()
				req := fmt.Sprintf("c%d-%d", ci, c.nextID)
				c.nextID++
				var reqSpan uint64
				if e.tr != nil {
					reqSpan = e.tr.id()
					jobs.open(key, req, reqSpan)
					if q := int64(srv.Engine().Stats().Queued); q > queuedMax.Load() {
						queuedMax.Store(q)
					}
				}
				t0 := time.Now()
				st, err := postRun(client, ts.URL, spec)
				t1 := time.Now()
				if err != nil {
					errs[ci] = err
					samples[ci] = append(samples[ci], serveSample{key: key})
					continue
				}
				s := serveSample{ms: ms(t1.Sub(t0)), ok: true, hit: st.CacheHit, bytes: st.bytes, key: key, sum: sha256.Sum256(st.Result)}
				samples[ci] = append(samples[ci], s)
				if fresh && len(refs[ci]) < serveDigestMisses {
					refs[ci] = append(refs[ci], st.Result)
				}
				if e.tr != nil {
					e.tr.record(reqSpan, 0, req, "server.request", t0, t1, false)
					if s.hit {
						e.tr.sample("server.hit_ms", s.ms)
					} else {
						e.tr.sample("server.miss_ms", s.ms)
						if j := jobs.get(key); !j.execStart.IsZero() && j.reqSpan == reqSpan {
							e.tr.record(0, reqSpan, req, "server.admit", t0, j.execStart, false)
							e.tr.record(0, reqSpan, req, "server.respond", j.execEnd, t1, false)
							e.tr.sample("server.admit_ms", ms(j.execStart.Sub(t0)))
							e.tr.sample("server.respond_ms", ms(t1.Sub(j.execEnd)))
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	r.heapMB = liveHeapMB()

	// Checks, untimed: every request answered 200 with a result, and every
	// hit's result is byte-identical to the miss that computed it.
	missResult := make(map[string][sha256.Size]byte)
	var hitMs, missMs []float64
	var hitBytes, missBytes []float64
	for ci, ss := range samples {
		if errs[ci] != nil {
			r.problem("serve-mixed: client %d: %v", ci, errs[ci])
		}
		for _, s := range ss {
			r.attempted++
			if !s.ok {
				r.failed++
				continue
			}
			if s.hit {
				hitMs = append(hitMs, s.ms)
				hitBytes = append(hitBytes, float64(s.bytes))
			} else {
				missMs = append(missMs, s.ms)
				missBytes = append(missBytes, float64(s.bytes))
				missResult[s.key] = s.sum
			}
		}
	}
	compared := 0
	for _, ss := range samples {
		for _, s := range ss {
			if !s.hit {
				continue
			}
			if m, ok := missResult[s.key]; ok {
				compared++
				if m != s.sum {
					r.problem("serve-mixed: cache hit for %.12s differs from the miss that computed it", s.key)
				}
			}
		}
	}
	r.runsPerS = float64(r.attempted-r.failed) / elapsed
	r.waitP50Ms, _ = median(missMs)
	hit50, _ := median(hitMs)
	hit90, hitOK := highPercentile(hitMs, 0.9)
	miss90, missOK := highPercentile(missMs, 0.9)
	r.note("clients=%d requests=%d failed=%d hits=%d misses=%d hits_compared=%d", nclients, r.attempted, r.failed, len(hitMs), len(missMs), compared)
	r.note("hit_p50_ms=%.4f hit_p90_ms=%s miss_p50_ms=%.4f miss_p90_ms=%s", hit50, fmtPct(hit90, hitOK), r.waitP50Ms, fmtPct(miss90, missOK))
	if len(missMs) == 0 {
		r.problem("serve-mixed: no cache misses were answered")
	}

	// The reference set: each client's first fresh seed at every fault
	// count. Its simulated statistics and digest must not change with a
	// change that only speeds up the simulator.
	h := sha256.New()
	for _, rs := range refs {
		for _, raw := range rs {
			h.Write(raw)
			var rr server.RunResult
			if err := json.Unmarshal(raw, &rr); err != nil {
				r.problem("serve-mixed: decoding a reference result: %v", err)
				continue
			}
			for _, run := range rr.Runs {
				r.sim.instances += run.InstancesCompleted
				r.sim.switches += run.TaskSwitches
				r.sim.dropped += run.PacketsDropped
			}
		}
	}
	r.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])

	if e.tr != nil {
		cacheAfter := srv.Engine().Stats().Cache
		var totals cacheCounters
		totals.add(before, readCaches())
		r.layer = totals.layerValues(float64(len(missMs)))
		r.layer["centurion.new_ms"] = newMs(e.sz.newReps, 16, 8, "mesh")
		hits := float64(cacheAfter.Hits - cacheBefore.Hits)
		misses := float64(cacheAfter.Misses - cacheBefore.Misses)
		r.layer["server.cache_hit_ratio"] = ratio(hits, hits+misses)
		r.layer["server.queued_max"] = float64(queuedMax.Load())
		r.layer["server.hit_samples"] = float64(len(hitMs))
		r.layer["server.miss_samples"] = float64(len(missMs))
		r.layer["server.hit_response_kb"] = mean(hitBytes) / 1024
		r.layer["server.miss_response_kb"] = mean(missBytes) / 1024
	}
	return r, nil
}

func fmtPct(v float64, ok bool) string {
	if !ok {
		return "missing(<10 samples beyond)"
	}
	return fmt.Sprintf("%.4f", v)
}

// runStatus is the part of the service's job status the benchmark reads.
type runStatus struct {
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Result   json.RawMessage `json:"result"`
	bytes    int
}

// postRun submits one spec with ?wait=1 and reads the whole reply; any
// answer but a finished 200 is an error.
func postRun(client *http.Client, base string, spec server.RunSpec) (runStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return runStatus{}, err
	}
	resp, err := client.Post(base+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return runStatus{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return runStatus{}, fmt.Errorf("reading reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return runStatus{}, fmt.Errorf("POST /v1/runs: status %d: %.200s", resp.StatusCode, data)
	}
	var st runStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return runStatus{}, fmt.Errorf("decoding reply: %w", err)
	}
	if st.State != "done" || len(st.Result) == 0 {
		return runStatus{}, fmt.Errorf("POST /v1/runs: job %s without a result", st.State)
	}
	st.bytes = len(data)
	return st, nil
}

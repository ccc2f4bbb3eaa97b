package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"centurion/internal/dispatch"
	"centurion/internal/experiments"
	"centurion/internal/server"
	"centurion/internal/store"
)

// Fabric timing: a lease TTL short enough that a killed job is requeued
// quickly, so lease, checkpoint, store and journal work rather than the TTL
// wait make up most of a sweep; checkpoints every 10 simulated ms.
const (
	fabricTTL             = 100 * time.Millisecond
	fabricPollWait        = 50 * time.Millisecond
	fabricCheckpointEvery = 20
)

// fabricSlot is one in-process worker position; a kill replaces the worker
// running in it.
type fabricSlot struct {
	id      int
	armed   atomic.Int64  // committed checkpoints left before a kill; 0 = none armed
	curExec atomic.Uint64 // span of the job the slot's worker is executing
}

// fabric is a server with a durable store and journal, its worker slots and
// their supervisors.
type fabric struct {
	e         *env
	dir       string
	srv       *server.Server
	ts        *httptest.Server
	jobs      *jobIndex
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	slots     []*fabricSlot
	resumable dispatch.ExecuteResumableFunc
	kills     atomic.Int64
	lastKill  atomic.Int64 // unix ns of the latest kill whose job has not resumed yet
	simWins   atomic.Int64 // windows simulated over all attempts (traced)
}

// startFabric opens the store and journal in a fresh directory, starts the
// server and one worker per CPU, and waits until the workers are
// registered and one job has run through them.
func (e *env) startFabric() (*fabric, error) {
	dir, err := os.MkdirTemp(e.tmp, "fabric-")
	if err != nil {
		return nil, err
	}
	log, err := store.OpenLog(filepath.Join(dir, "results.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	journal, err := dispatch.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		log.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	var st store.Store = log
	if e.tr != nil {
		st = &tracedStore{Store: log, tr: e.tr}
	}
	nc := runtime.NumCPU()
	f := &fabric{
		e:         e,
		dir:       dir,
		jobs:      newJobIndex(),
		resumable: server.DispatchExecuteResumable(fabricCheckpointEvery),
	}
	f.srv = server.New(server.Options{
		// Engine workers only wait on leases, so more of them than worker
		// slots keeps a job queued for every slot that frees up.
		Workers:    4 * nc,
		QueueBound: 4096,
		Store:      st,
		Dispatch: dispatch.Config{
			LeaseTTL:    fabricTTL,
			PollWait:    fabricPollWait,
			MaxAttempts: 8,
			Journal:     journal,
		},
	})
	f.ts = httptest.NewServer(f.srv)
	if e.tr != nil {
		f.srv.Engine().SetExecutor(e.tracedExecutor(server.NewDispatchExecutor(f.srv.Coordinator()), f.jobs, false))
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for i := 0; i < nc; i++ {
		s := &fabricSlot{id: i}
		f.slots = append(f.slots, s)
		f.wg.Add(1)
		go f.supervise(s)
	}
	wait := time.Now().Add(30 * time.Second)
	for f.srv.Coordinator().Stats().WorkersLive < nc {
		if time.Now().After(wait) {
			f.close()
			return nil, fmt.Errorf("workers did not register")
		}
		time.Sleep(100 * time.Microsecond)
	}
	spec := server.RunSpec{Model: "ffw", Seed: 1<<40 + 1, DurationMs: 10, Width: e.sz.fabricW, Height: e.sz.fabricH}
	if _, err := postRun(&http.Client{Timeout: time.Minute}, f.ts.URL, spec); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// supervise runs the slot's worker and, after each kill, a replacement,
// until the fabric closes.
func (f *fabric) supervise(s *fabricSlot) {
	defer f.wg.Done()
	for gen := 0; f.ctx.Err() == nil; gen++ {
		hardStop := make(chan struct{})
		var once sync.Once
		kill := func() { once.Do(func() { close(hardStop) }) }
		opts := dispatch.WorkerOptions{
			Coordinator:      f.ts.URL,
			Name:             fmt.Sprintf("w%d-%d", s.id, gen),
			Slots:            1,
			ExecuteResumable: f.execute(s, kill),
			HardStop:         hardStop,
			MaxBackoff:       100 * time.Millisecond,
		}
		if f.e.tr != nil {
			opts.Transport = &tracedTransport{inner: dispatch.NewHTTPTransport(f.ts.URL, nil), tr: f.e.tr, slot: s}
		}
		if err := dispatch.RunWorker(f.ctx, opts); err != nil && f.ctx.Err() == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// execute is the slot's checkpointing executor. It hard-kills the worker
// right after the slot's armed count of committed checkpoints, and when
// traced it times the attempt and counts the windows it simulated.
func (f *fabric) execute(s *fabricSlot, kill func()) dispatch.ExecuteResumableFunc {
	tr := f.e.tr
	return func(ctx context.Context, job dispatch.ResumableJob) ([]byte, string) {
		entry := time.Now()
		if job.Checkpoint != nil {
			if k := f.lastKill.Swap(0); k != 0 {
				tr.sample("dispatch.recovery_ms", ms(entry.Sub(time.Unix(0, k))))
			}
		}
		inner := job
		inner.Commit = func(cctx context.Context, tick int64, data []byte) error {
			err := job.Commit(cctx, tick, data)
			tr.sample("dispatch.checkpoint_bytes", float64(len(data)))
			if err == nil && s.armed.Load() > 0 && s.armed.Add(-1) == 0 {
				f.lastKill.Store(time.Now().UnixNano())
				f.kills.Add(1)
				kill()
				// The worker cancels the job's context asynchronously; wait
				// for it, so a job near its end cannot finish and report
				// completion before the kill lands.
				<-ctx.Done()
			}
			return err
		}
		if tr == nil {
			return f.resumable(ctx, inner)
		}
		jt := f.jobs.get(job.Key)
		id := tr.id()
		s.curExec.Store(id)
		defer s.curExec.Store(0)
		if job.Checkpoint == nil && !jt.execStart.IsZero() {
			tr.record(0, jt.execSpan, jt.req, "dispatch.lease_wait", jt.execStart, entry, false)
			tr.sample("dispatch.lease_wait_ms", ms(entry.Sub(jt.execStart)))
		}
		samples := 0
		inner.Progress = func(b []byte) {
			var xs []json.RawMessage
			if json.Unmarshal(b, &xs) == nil {
				samples += len(xs)
			}
			job.Progress(b)
		}
		res, msg := f.resumable(ctx, inner)
		end := time.Now()
		tr.record(id, jt.execSpan, jt.req, "dispatch.exec", entry, end, msg != "")
		tr.sample("dispatch.exec_ms", ms(end.Sub(entry)))
		// A resumed attempt first replays the windows before its checkpoint.
		f.simWins.Add(int64(samples) - job.CheckpointTick)
		return res, msg
	}
}

// close drains the workers, stops the server and removes the directory.
func (f *fabric) close() {
	f.cancel()
	f.wg.Wait()
	f.ts.Close()
	f.srv.Close()
	os.RemoveAll(f.dir)
}

// sweepRequest is sweep i's grid: every cell fresh, so none is a cache hit.
func (e *env) sweepRequest(i int) server.SweepRequest {
	return server.SweepRequest{
		Spec: server.RunSpec{
			DurationMs: e.sz.fabricMs,
			Width:      e.sz.fabricW,
			Height:     e.sz.fabricH,
			Seed:       e.seed*1_000_000 + uint64(i)*1000 + 1,
		},
		Models:      e.sz.fabricModels,
		FaultCounts: e.sz.fabricFaults,
		Topologies:  e.sz.fabricTopos,
		Runs:        1,
	}
}

// sweepCells expands a sweep into its canonical cell specs in the order
// the server returns its rows (models, fault counts, topologies), with the
// server's default fault time: halfway, on the window grid.
func sweepCells(req server.SweepRequest) ([]server.RunSpec, error) {
	var cells []server.RunSpec
	for _, m := range req.Models {
		for _, k := range req.FaultCounts {
			for _, topo := range req.Topologies {
				s := req.Spec
				s.Model, s.NumFaults, s.Topology, s.Runs = m, k, topo, req.Runs
				if k > 0 {
					s.FaultAtMs = s.DurationMs / 2
				}
				if err := s.Canonicalize(); err != nil {
					return nil, err
				}
				cells = append(cells, s)
			}
		}
	}
	return cells, nil
}

// runFabricKills submits sweep after sweep of small fresh cells to a
// server with a durable store, a journal and one leased, checkpointing
// worker per CPU. Each sweep kills one worker after a seeded number of its
// committed checkpoints; the killed job resumes on another worker once its
// lease expires, and a replacement worker takes the slot.
func runFabricKills(e *env) (*report, error) {
	r := &report{}
	var f *fabric
	setup, err := setupMedian(e.sz.setupReps, func(last bool) error {
		// Only the fabric the run keeps is traced.
		se := *e
		if !last {
			se.tr = nil
		}
		var err error
		if f, err = se.startFabric(); err != nil {
			return err
		}
		if !last {
			f.close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.setupS = setup
	defer f.close()

	coord := f.srv.Coordinator()
	f.simWins.Store(0) // count the timed sweeps' windows only
	statsBefore := coord.Stats()
	before := readCaches()
	rng := rand.New(rand.NewPCG(e.seed, 0xfab))
	client := &http.Client{Timeout: 2 * time.Minute}
	type sweepRun struct {
		req  server.SweepRequest
		rows []server.SweepRow
	}
	var sweeps []sweepRun
	var sweepMs []float64
	cells := 0
	start := time.Now()
	deadline := e.deadline(start)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		req := e.sweepRequest(i)
		specs, err := sweepCells(req)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("sweep-%d", i)
		var sweepSpan uint64
		if e.tr != nil {
			sweepSpan = e.tr.id()
			for _, s := range specs {
				f.jobs.open(s.CanonicalKey(), name, sweepSpan)
			}
		}
		doomed := f.slots[rng.IntN(len(f.slots))]
		doomed.armed.Store(int64(1 + rng.IntN(3)))
		resumesBefore := coord.Stats().Resumes
		r.attempted++
		t0 := time.Now()
		resp, err := client.Post(f.ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		t1 := time.Now()
		doomed.armed.Store(0)
		e.tr.record(sweepSpan, 0, name, "server.sweep", t0, t1, err != nil)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
		}
		var sr server.SweepResponse
		if err == nil {
			err = json.Unmarshal(data, &sr)
		}
		if err == nil && len(sr.Rows) != len(specs) {
			err = fmt.Errorf("%d rows for %d cells", len(sr.Rows), len(specs))
		}
		if err != nil {
			r.failed++
			r.problem("fabric-kills: sweep %d: %v", i, err)
			continue
		}
		if coord.Stats().Resumes == resumesBefore {
			r.problem("fabric-kills: sweep %d finished without a checkpoint resume", i)
		}
		sweepMs = append(sweepMs, ms(t1.Sub(t0)))
		cells += len(specs)
		sweeps = append(sweeps, sweepRun{req, sr.Rows})
	}
	elapsed := time.Since(start).Seconds()
	r.heapMB = liveHeapMB()
	statsAfter := coord.Stats()
	r.runsPerS = float64(cells) / elapsed
	r.waitP50Ms, _ = median(sweepMs)
	r.note("sweeps=%d cells=%d kills=%d resumes=%d requeued=%d (cells of %dx%d, %d ms)",
		len(sweeps), cells, f.kills.Load(), statsAfter.Resumes-statsBefore.Resumes,
		statsAfter.Requeued-statsBefore.Requeued, e.sz.fabricW, e.sz.fabricH, e.sz.fabricMs)

	// Checks, untimed: every sweep's aggregates equal a local execution of
	// the same cells without warm start, so nothing the workers shared in
	// this process can mask a difference.
	prev := experiments.SetWarmStart(false)
	for si, sw := range sweeps {
		specs, _ := sweepCells(sw.req)
		for ci, spec := range specs {
			res, err := server.Execute(context.Background(), spec, nil)
			if err != nil {
				r.problem("fabric-kills: local execution of sweep %d cell %d: %v", si, ci, err)
				continue
			}
			row := sw.rows[ci]
			if row.Model != spec.Model || row.Faults != spec.NumFaults || row.Topology != spec.Topology {
				r.problem("fabric-kills: sweep %d row %d is %s/%d/%s, expected %s/%d/%s", si, ci,
					row.Model, row.Faults, row.Topology, spec.Model, spec.NumFaults, spec.Topology)
			} else if !reflect.DeepEqual(res.Aggregate, row.Aggregate) {
				r.problem("fabric-kills: sweep %d cell %s/%d/%s differs from local execution", si, spec.Model, spec.NumFaults, spec.Topology)
			}
			if si == 0 {
				for _, run := range res.Runs {
					r.sim.instances += run.InstancesCompleted
					r.sim.switches += run.TaskSwitches
					r.sim.dropped += run.PacketsDropped
				}
			}
		}
	}
	experiments.SetWarmStart(prev)
	if len(sweeps) > 0 {
		aggs := make([]server.Aggregate, len(sweeps[0].rows))
		for i, row := range sweeps[0].rows {
			aggs[i] = row.Aggregate
		}
		r.digest = digestOf(aggs)
	}

	if e.tr != nil {
		_, samples, sums := e.tr.snapshot()
		var totals cacheCounters
		totals.add(before, readCaches())
		r.layer = totals.layerValues(float64(len(samples["dispatch.exec_ms"])))
		r.layer["centurion.new_ms"] = newMs(e.sz.newReps, e.sz.fabricW, e.sz.fabricH, "mesh")
		r.layer["dispatch.checkpoint_kb"] = mean(samples["dispatch.checkpoint_bytes"]) / 1024
		useful := float64(cells * e.sz.fabricMs)
		r.layer["dispatch.useful_window_ratio"] = ratio(useful, float64(f.simWins.Load()))
		r.layer["dispatch.requeued"] = float64(statsAfter.Requeued - statsBefore.Requeued)
		r.layer["dispatch.resumes"] = float64(statsAfter.Resumes - statsBefore.Resumes)
		r.layer["dispatch.stale_rejected"] = float64(statsAfter.StaleRejected - statsBefore.StaleRejected)
		r.layer["store.puts"] = sums["store.puts"]
		r.layer["store.bytes_mb"] = sums["store.bytes"] / (1 << 20)
	}
	return r, nil
}

// tracedStore times every store call the server makes.
type tracedStore struct {
	store.Store
	tr *tracer
}

func (s *tracedStore) Get(key string) ([]byte, bool, error) {
	t0 := time.Now()
	v, ok, err := s.Store.Get(key)
	s.done("store.get", t0, err)
	return v, ok, err
}

func (s *tracedStore) Put(key string, val []byte) error {
	t0 := time.Now()
	err := s.Store.Put(key, val)
	s.done("store.put", t0, err)
	s.tr.add("store.puts", 1)
	s.tr.add("store.bytes", float64(len(val)))
	return err
}

func (s *tracedStore) Delete(key string) error {
	t0 := time.Now()
	err := s.Store.Delete(key)
	s.done("store.delete", t0, err)
	return err
}

func (s *tracedStore) done(name string, t0 time.Time, err error) {
	end := time.Now()
	s.tr.record(0, 0, "", name, t0, end, err != nil)
	s.tr.sample(name+"_ms", ms(end.Sub(t0)))
}

// tracedTransport times every worker-to-coordinator RPC. Progress and
// checkpoint posts block the job's execution, so they are children of the
// slot's current execute span; heartbeats run beside it and the rest
// outside it, so those are roots.
type tracedTransport struct {
	inner dispatch.Transport
	tr    *tracer
	slot  *fabricSlot
}

func (t *tracedTransport) Post(ctx context.Context, path string, body, out any) (int, error) {
	t0 := time.Now()
	status, err := t.inner.Post(ctx, path, body, out)
	end := time.Now()
	kind := path[strings.LastIndex(path, "/")+1:]
	var parent uint64
	if kind == "progress" || kind == "checkpoint" {
		parent = t.slot.curExec.Load()
	}
	t.tr.record(0, parent, "", "dispatch.rpc."+kind, t0, end, err != nil || status >= 400)
	t.tr.sample("dispatch.rpc_"+kind+"_ms", ms(end.Sub(t0)))
	return status, err
}

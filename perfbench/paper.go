package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"centurion"
	"centurion/internal/aim"
	platform "centurion/internal/centurion"
	"centurion/internal/experiments"
	"centurion/internal/taskgraph"
)

// paperFig4Faults are the paper's two Figure 4 columns.
var paperFig4Faults = []int{5, 42}

// paperCells is how many runs one regeneration of Table I, Table II and
// both Figure 4 columns executes with runs per row.
func paperCells(runs int) int {
	return len(experiments.Models)*runs + // Table I
		runs + len(experiments.Models)*len(experiments.DefaultFaultCounts)*runs + // Table II
		len(paperFig4Faults)*len(experiments.Models) // Figure 4
}

// paperBase is the first seed of round r: rounds never share seeds, so no
// round can reuse another's simulated prefixes.
func paperBase(seed uint64, round int) uint64 {
	return seed*1_000_000 + uint64(round)*1000 + 1
}

// paperRound is one regeneration's results kept for the checks.
type paperRound struct {
	base  uint64
	table *experiments.Table2Result // untraced: Table II as the entry point returns it
	cells []experiments.Result      // traced: the Table II runs
	fig4  []experiments.Fig4Result
}

func (p *paperRound) release() {
	for i := range p.fig4 {
		p.fig4[i].Release()
	}
	for i := range p.cells {
		p.cells[i].Release()
	}
}

// runPaperCold regenerates the paper's Table I, Table II and Figure 4 from
// an empty warm-start cache, round after round with fresh seeds, as the
// centurion table1/table2/fig4 commands do. Untraced rounds call the
// public entry points; traced rounds run the same cells in the same order
// and parallelism through experiments.RunContext, so each run gets spans.
func runPaperCold(e *env) (*report, error) {
	r := &report{}
	workers := runtime.GOMAXPROCS(0)
	// Set-up is the sweep's first platform builds: one per RunMany worker
	// for each model.
	setup, err := setupMedian(e.sz.setupReps, func(bool) error {
		for _, m := range experiments.Models {
			s := experiments.DefaultSpec(m, 0)
			s.DurationMs = 1
			for _, res := range experiments.RunMany(s, workers, 1) {
				res.Release()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.setupS = setup

	var totals cacheCounters
	var roundMs []float64
	var first *paperRound
	cells := 0
	start := time.Now()
	deadline := e.deadline(start)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		// Each round is a cold regeneration, as in a fresh process.
		experiments.ResetWarmStart()
		before := readCaches()
		t0 := time.Now()
		pr := e.paperRound(paperBase(e.seed, round), round)
		roundMs = append(roundMs, ms(time.Since(t0)))
		totals.add(before, readCaches())
		cells += paperCells(e.sz.paperRuns)
		if round == 0 {
			first = pr
		} else {
			pr.release()
		}
	}
	elapsed := time.Since(start).Seconds()
	r.heapMB = liveHeapMB()
	r.attempted = cells
	r.runsPerS = float64(cells) / elapsed
	r.waitP50Ms, _ = median(roundMs)
	r.note("rounds=%d cells=%d (each round: %d runs at 16x8, 1000 ms)", len(roundMs), cells, paperCells(e.sz.paperRuns))

	e.checkPaper(r, first)
	first.release()

	if e.tr != nil {
		r.layer = totals.layerValues(float64(cells))
		r.layer["centurion.new_ms"] = newMs(e.sz.newReps, 16, 8, "mesh")
	}
	return r, nil
}

// paperRound regenerates Table I, Table II and both Figure 4 columns.
func (e *env) paperRound(base uint64, round int) *paperRound {
	runs := e.sz.paperRuns
	pr := &paperRound{base: base}
	if e.tr == nil {
		centurion.RunTable1(runs, base)
		t2 := centurion.RunTable2(runs, base)
		pr.table = &t2
		for _, k := range paperFig4Faults {
			pr.fig4 = append(pr.fig4, centurion.RunFig4(k, base))
		}
		return pr
	}
	req := fmt.Sprintf("round-%d", round)
	for _, m := range experiments.Models {
		t1 := e.runRow(experiments.DefaultSpec(m, 0), runs, base, req)
		for i := range t1 {
			t1[i].Release()
		}
	}
	pr.cells = e.runRow(experiments.DefaultSpec(experiments.ModelNone, 0), runs, base, req)
	for _, m := range experiments.Models {
		for _, k := range experiments.DefaultFaultCounts {
			s := experiments.DefaultSpec(m, 0)
			if k > 0 {
				s.FaultAtMs, s.NumFaults = 500, k
			}
			pr.cells = append(pr.cells, e.runRow(s, runs, base, req)...)
		}
	}
	for _, k := range paperFig4Faults {
		f := experiments.Fig4Result{Faults: k, FaultAtMs: 500}
		for _, m := range experiments.Models {
			s := experiments.DefaultSpec(m, base)
			s.FaultAtMs, s.NumFaults = 500, k
			f.Cases = append(f.Cases, experiments.Fig4Case{Model: m, Faults: k, Result: e.tracedRun(s, req)})
		}
		pr.fig4 = append(pr.fig4, f)
	}
	return pr
}

// runRow runs n seeds of spec across GOMAXPROCS workers, as
// experiments.RunMany does, with every run traced.
func (e *env) runRow(spec experiments.Spec, n int, base uint64, req string) []experiments.Result {
	out := make([]experiments.Result, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := spec
				s.Seed = base + uint64(i)
				out[i] = e.tracedRun(s, req)
			}
		}()
	}
	wg.Wait()
	return out
}

// tracedRun runs one spec through experiments.RunContext, timing it through
// its window callbacks when traced.
func (e *env) tracedRun(spec experiments.Spec, req string) experiments.Result {
	if e.tr == nil {
		res, _ := experiments.RunContext(context.Background(), spec, nil)
		return res
	}
	id := e.tr.id()
	c := newRunClock()
	res, err := experiments.RunContext(context.Background(), spec, func(_ int, tp, _, _ float64) { c.window(tp) })
	end := time.Now()
	w, h := spec.Width, spec.Height
	if w == 0 {
		w, h = 16, 8
	}
	c.finish(e.tr, id, req, end, w*h, max(spec.WindowMs, 1), err != nil)
	e.tr.record(id, 0, req, "experiments.run", c.call, end, err != nil)
	return res
}

// checkPaper recomputes the first round's sample without warm start: Table
// II, whose runs replay or fork Table I's prefixes, and both Figure 4
// columns must be bit-identical. It also derives the round's simulated
// statistics and digest from the Figure 4 runs.
func (e *env) checkPaper(r *report, first *paperRound) {
	prev := experiments.SetWarmStart(false)
	defer experiments.SetWarmStart(prev)
	runs := e.sz.paperRuns
	if first.table != nil {
		cold := centurion.RunTable2(runs, first.base)
		if !reflect.DeepEqual(cold, *first.table) {
			r.problem("paper-cold: Table II (seed %d) differs from its recomputation without warm start", first.base)
		}
	}
	for i := range first.cells {
		cold := experiments.Run(first.cells[i].Spec)
		if !reflect.DeepEqual(cold, first.cells[i]) {
			r.problem("paper-cold: Table II run %v seed %d differs from its recomputation without warm start",
				first.cells[i].Spec.Model, first.cells[i].Spec.Seed)
		}
		cold.Release()
	}
	type digestRow struct {
		Model                                         string
		Faults                                        int
		Settling, Recovery, SteadyRate, PostFaultRate float64
		Counters                                      platform.Counters
	}
	var rows []digestRow
	for _, f := range first.fig4 {
		cold := centurion.RunFig4(f.Faults, first.base)
		for i, c := range f.Cases {
			if !reflect.DeepEqual(cold.Cases[i].Result, c.Result) {
				r.problem("paper-cold: Figure 4 (%d faults) %v differs from its recomputation without warm start", f.Faults, c.Model)
			}
			res := c.Result
			rows = append(rows, digestRow{c.Model.String(), f.Faults, res.SettlingMs, res.RecoveryMs, res.SteadyRate, res.PostFaultRate, res.Counters})
			r.sim.instances += res.Counters.InstancesCompleted
			r.sim.switches += res.Counters.TaskSwitches
			r.sim.dropped += res.Counters.PacketsDropped
		}
		cold.Release()
	}
	r.digest = digestOf(rows)
}

// digestOf is a short SHA-256 of v's JSON form.
func digestOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:8])
}

// newMs is the median cost of building one FFW platform of the given shape.
func newMs(reps, w, h int, topology string) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		cfg := platform.DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, uint64(i+1))
		cfg.Width, cfg.Height, cfg.Topology = w, h, topology
		runtime.GC()
		t0 := time.Now()
		p := platform.New(cfg)
		xs = append(xs, ms(time.Since(t0)))
		runtime.KeepAlive(p)
	}
	m, _ := median(xs)
	return m
}

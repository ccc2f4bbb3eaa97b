package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"centurion/internal/experiments"
)

// gridReference is how many leading runs form the fixed reference set
// whose simulated statistics and digest are reported.
const gridReference = 2

// gridSpec is grid-64's run i: fault-free FFW on the large grid, a fresh
// seed each. A faulted run is left out: on 64x64 one fault rebuilds the
// whole-grid route tables, which takes about 8 s, too long to repeat inside
// a steady time-bounded run.
func (e *env) gridSpec(i int) experiments.Spec {
	s := experiments.DefaultSpec(experiments.ModelFFW, e.seed*1_000_000+uint64(i)+1)
	s.Width, s.Height, s.DurationMs = e.sz.gridW, e.sz.gridH, e.sz.gridMs
	return s
}

// runGrid64 runs large-grid FFW runs one at a time through
// experiments.RunContext. The grid is split into tiles swept by
// GOMAXPROCS workers, so this is the workload of the tiled kernel,
// whole-grid route tables and a large heap.
func runGrid64(e *env) (*report, error) {
	r := &report{}
	// Set-up is the first run's platform build, paid by a one-window run.
	setup, err := setupMedian(e.sz.gridSetupReps, func(bool) error {
		s := e.gridSpec(0)
		s.Seed, s.DurationMs = 1<<40+1, 1
		res, err := experiments.RunContext(context.Background(), s, nil)
		res.Release()
		return err
	})
	if err != nil {
		return nil, err
	}
	r.setupS = setup
	experiments.ResetWarmStart()

	before := readCaches()
	var runMs []float64
	var kept []experiments.Result // the reference set
	start := time.Now()
	deadline := e.deadline(start)
	for i := 0; i < gridReference || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		res := e.tracedRun(e.gridSpec(i), fmt.Sprintf("run-%d", i))
		runMs = append(runMs, ms(time.Since(t0)))
		r.attempted++
		if i < gridReference {
			kept = append(kept, res)
		} else {
			res.Release()
		}
	}
	elapsed := time.Since(start).Seconds()
	r.heapMB = liveHeapMB()
	r.runsPerS = float64(len(runMs)) / elapsed
	r.waitP50Ms, _ = median(runMs)
	r.note("runs=%d (%dx%d FFW, %d ms) GOMAXPROCS=%d", len(runMs), e.sz.gridW, e.sz.gridH, e.sz.gridMs, runtime.GOMAXPROCS(0))

	// Check, untimed: the first run again on one tile worker without warm
	// start gives an identical result.
	prevProcs := runtime.GOMAXPROCS(1)
	prevWarm := experiments.SetWarmStart(false)
	again := experiments.Run(kept[0].Spec)
	experiments.SetWarmStart(prevWarm)
	runtime.GOMAXPROCS(prevProcs)
	if !reflect.DeepEqual(again, kept[0]) {
		r.problem("grid-64: run 0 differs when re-run at GOMAXPROCS 1 without warm start")
	}
	again.Release()
	type digestRow struct {
		Settling, Recovery, SteadyRate, PostFaultRate float64
		Throughput                                    []float64
	}
	var rows []digestRow
	for i := range kept {
		c := kept[i].Counters
		r.sim.instances += c.InstancesCompleted
		r.sim.switches += c.TaskSwitches
		r.sim.dropped += c.PacketsDropped
		rows = append(rows, digestRow{kept[i].SettlingMs, kept[i].RecoveryMs, kept[i].SteadyRate, kept[i].PostFaultRate, kept[i].Throughput.Values})
		kept[i].Release()
	}
	r.digest = digestOf(rows)

	if e.tr != nil {
		var totals cacheCounters
		totals.add(before, readCaches())
		r.layer = totals.layerValues(float64(len(runMs)))
		r.layer["centurion.new_ms"] = newMs(e.sz.newReps, e.sz.gridW, e.sz.gridH, "mesh")
	}
	return r, nil
}

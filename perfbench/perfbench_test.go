package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

func TestHighPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so the helper must sort
		}
		return xs
	}
	if _, ok := highPercentile(seq(99), 0.9); ok {
		t.Fatal("p90 of 99 samples has only 9 beyond it and must be missing")
	}
	if v, ok := highPercentile(seq(100), 0.9); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := highPercentile(seq(250), 0.9); !ok || v != 225 {
		t.Fatalf("p90 of 1..250 = %v, %v; want 225, true", v, ok)
	}
	if _, ok := highPercentile(nil, 0.9); ok {
		t.Fatal("p90 of no samples must be missing")
	}
	if v, ok := median(seq(4)); !ok || v != 2.5 {
		t.Fatalf("median of 1..4 = %v, %v; want 2.5, true", v, ok)
	}
	if v, ok := median(seq(5)); !ok || v != 3 {
		t.Fatalf("median of 1..5 = %v, %v; want 3, true", v, ok)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "server.request", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "server.exec", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "server.admit", Start: at(20), End: at(50)}, // overlaps 2
		{ID: 4, Parent: 1, Name: "server.respond", Start: at(40), End: at(60)},
		{ID: 5, Parent: 1, Name: "store.put", Start: at(90), End: at(120)}, // runs past its parent
		{ID: 6, Parent: 2, Name: "experiments.setup", Start: at(15), End: at(25)},
		{ID: 7, Parent: 2, Name: "centurion.simulate", Start: at(5), End: at(12)}, // starts before its parent
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 40 * time.Millisecond, // 100 - [10,60] - [90,100]
		2: 8 * time.Millisecond,  // 20 - [10,12] - [15,25]
		3: 30 * time.Millisecond,
		5: 30 * time.Millisecond,
		6: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	totals := layerTotals(spans)
	if got := totals["layer.server.self_ms"]; got != 40+8+30+20 {
		t.Errorf("server self time = %v ms, want 98", got)
	}
	if got := totals["layer.store.spans"]; got != 1 {
		t.Errorf("store spans = %v, want 1", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps the declared workloads and metrics in
// step with what the command prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// tinySizes shrink every workload to a smoke run of a second or two.
var tinySizes = sizes{
	setupReps:     1,
	paperRuns:     1,
	serveHot:      2,
	serveMs:       100,
	fabricMs:      80,
	fabricW:       8,
	fabricH:       4,
	fabricModels:  []string{"ffw"},
	fabricFaults:  []int{0, 1, 2, 3},
	fabricTopos:   []string{"mesh"},
	gridW:         16,
	gridH:         16,
	gridMs:        20,
	gridSetupReps: 1,
	newReps:       1,
}

// smokeLayers are per-layer metrics each workload must measure.
var smokeLayers = map[string][]string{
	"paper-cold":   {"experiments.run_ms_p50", "centurion.ns_per_node_tick", "layer.centurion.self_ms"},
	"serve-mixed":  {"server.exec_ms_p50", "server.miss_samples", "server.admit_queue_ms_p50", "layer.server.self_ms"},
	"fabric-kills": {"dispatch.exec_ms_p50", "dispatch.resumes", "dispatch.rpc_checkpoint_ms", "store.puts", "layer.store.spans"},
	"grid-64":      {"experiments.run_ms_p50", "centurion.ns_per_node_tick", "centurion.us_per_instance"},
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 3, seconds: 0.2, sz: tinySizes, tmp: t.TempDir()}
			plain, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.problems) > 0 || plain.failed > 0 || plain.attempted == 0 {
				t.Fatalf("untraced: problems %q, %d of %d failed", plain.problems, plain.failed, plain.attempted)
			}
			base := &result{Metrics: make(map[string]metric)}
			for name, v := range plain.endToEndValues() {
				if v <= 0 {
					t.Errorf("untraced %s = %v, want > 0", name, v)
				}
				base.Metrics[name] = metric{Value: v}
			}

			e.tr = newTracer()
			traced, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(traced.problems) > 0 || traced.failed > 0 {
				t.Fatalf("traced: problems %q, %d of %d failed", traced.problems, traced.failed, traced.attempted)
			}
			if traced.digest != plain.digest || traced.sim != plain.sim {
				t.Errorf("tracing changed the simulated results: %s %+v vs %s %+v", traced.digest, traced.sim, plain.digest, plain.sim)
			}
			values, missing := perLayerValues(e.tr, traced, base)
			for _, m := range perLayer {
				if _, ok := values[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			for _, name := range append([]string{"centurion.new_ms", "centurion.instances_completed"}, smokeLayers[w.name]...) {
				if values[name] <= 0 || slices.Contains(missing, name) {
					t.Errorf("%s = %v, want a measured value > 0", name, values[name])
				}
			}
		})
	}
}

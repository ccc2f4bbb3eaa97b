package main

import (
	"strings"
	"testing"
)

func f(v float64) *float64 { return &v }

func TestParseBench(t *testing.T) {
	lines := []string{
		"goos: linux",
		"BenchmarkPlatformStep/ni-4         \t  568759\t      4113 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkRouterTickLoaded \t10064269\t       230.5 ns/op\t       0 B/op\t       0 allocs/op",
		"PASS",
	}
	got := parseBench(lines)
	ni, ok := got["BenchmarkPlatformStep/ni"]
	if !ok || ni.nsPerOp != 4113 || !ni.hasMem || ni.allocsPerOp != 0 {
		t.Fatalf("ni parsed as %+v (ok=%v)", ni, ok)
	}
	if rt := got["BenchmarkRouterTickLoaded"]; rt.nsPerOp != 230.5 {
		t.Fatalf("RouterTickLoaded parsed as %+v", rt)
	}
}

func TestGate(t *testing.T) {
	base := map[string]baselineEntry{
		"BenchmarkA": {NsPerOp: f(1000), BPerOp: f(0), AllocsPerOp: f(0)},
		"BenchmarkB": {NsPerOp: f(1000)},
		"BenchmarkC": {SPerOp: f(0.5)},
		"BenchmarkD": {NsPerOp: f(1000)},
	}
	meas := map[string]measurement{
		"BenchmarkA": {nsPerOp: 1200, bPerOp: 4, allocsPerOp: 1, hasMem: true}, // within 25% + slack
		"BenchmarkB": {nsPerOp: 1300},                                          // 30% over: fail
		"BenchmarkC": {nsPerOp: 0.5e9 * 1.1},                                   // s_per_op baseline, within
	}
	failures, _ := gate(meas, base, 0.25, []string{"BenchmarkA", "BenchmarkD"})
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want ns/op regression on B and missing required D", failures)
	}

	// Alloc regression beyond slack fails even when timing is fine.
	meas["BenchmarkA"] = measurement{nsPerOp: 1000, allocsPerOp: 5, hasMem: true}
	failures, _ = gate(meas, base, 0.25, nil)
	if len(failures) != 2 { // B's timing + A's allocs
		t.Fatalf("failures = %v, want alloc failure on A and timing failure on B", failures)
	}
}

// TestGateMedianOfSamples feeds -count 3 style output: the gate must judge
// the median of a name's samples, never just its last line.
func TestGateMedianOfSamples(t *testing.T) {
	base := map[string]baselineEntry{"BenchmarkA": {NsPerOp: f(1000)}}
	sample := func(ns string) string {
		return "BenchmarkA-2   \t    1000\t      " + ns + " ns/op"
	}

	// The last sample alone (1400) would fail; the median (1100) passes.
	meas := parseBench([]string{sample("1000"), sample("1100"), sample("1400")})
	a := meas["BenchmarkA"]
	if a.samples != 3 || a.nsPerOp != 1100 || a.nsMin != 1000 || a.nsMax != 1400 {
		t.Fatalf("BenchmarkA parsed as %+v, want median 1100 over 3 samples spanning 1000–1400", a)
	}
	if failures, _ := gate(meas, base, 0.25, nil); len(failures) != 0 {
		t.Fatalf("median within tolerance failed the gate: %v", failures)
	}

	// The last sample alone (1000) would pass; the median (1400) fails.
	meas = parseBench([]string{sample("1400"), sample("1500"), sample("1000")})
	if failures, _ := gate(meas, base, 0.25, nil); len(failures) != 1 {
		t.Fatalf("failures = %v, want the median regression on BenchmarkA", failures)
	}
}

// TestGateHeapCeiling covers the optional heap_MB ceiling: parsed from the
// custom metric, gated on the median, and a benchmark whose baseline has a
// ceiling must keep reporting the metric.
func TestGateHeapCeiling(t *testing.T) {
	base := map[string]baselineEntry{
		"BenchmarkA": {NsPerOp: f(1000), HeapMB: f(16)},
		"BenchmarkB": {NsPerOp: f(1000)},
	}
	sample := func(name, heap string) string {
		return name + "-2   \t    1000\t      1000 ns/op\t  " + heap + " heap_MB"
	}

	meas := parseBench([]string{sample("BenchmarkA", "15.0"), sample("BenchmarkA", "30.0"), sample("BenchmarkA", "19.5"), sample("BenchmarkB", "500")})
	if a := meas["BenchmarkA"]; a.heapMB != 19.5 {
		t.Fatalf("BenchmarkA heap_MB median = %v, want 19.5", a.heapMB)
	}
	if failures, _ := gate(meas, base, 0.25, nil); len(failures) != 0 {
		t.Fatalf("heap within 25%% of its ceiling (and none on B) failed the gate: %v", failures)
	}

	meas = parseBench([]string{sample("BenchmarkA", "160.6")})
	if failures, _ := gate(meas, base, 0.25, nil); len(failures) != 1 || !strings.Contains(failures[0], "heap_MB") {
		t.Fatalf("failures = %v, want the heap_MB regression on BenchmarkA", failures)
	}

	meas = parseBench([]string{"BenchmarkA-2   \t    1000\t      1000 ns/op"})
	if failures, _ := gate(meas, base, 0.25, nil); len(failures) != 1 || !strings.Contains(failures[0], "no heap_MB") {
		t.Fatalf("failures = %v, want the missing heap_MB report on BenchmarkA", failures)
	}
}

func TestEnvLine(t *testing.T) {
	got := envLine(environment{Nproc: 2, GOMAXPROCS: 2}, 8, 4)
	if want := "benchgate: baseline recorded with nproc=2 GOMAXPROCS=2; this machine nproc=8 GOMAXPROCS=4"; got != want {
		t.Fatalf("envLine = %q, want %q", got, want)
	}
	if got := envLine(environment{}, 1, 1); !strings.Contains(got, "unrecorded") {
		t.Fatalf("envLine without a recorded environment = %q", got)
	}
}

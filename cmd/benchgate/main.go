// Command benchgate compares `go test -bench` output against the repo's
// BENCH_platform.json snapshot and fails when a benchmark regressed beyond a
// relative tolerance — the CI perf gate guarding the simulator's hot paths
// (not just their allocation counts).
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkPlatformStep -benchmem -count 3 . > bench.out
//	go run ./cmd/benchgate -bench bench.out -baseline BENCH_platform.json -tol 0.25
//
// A benchmark that appears several times (-count N) is gated on the median
// of its samples, and its min–max spread is printed. Only benchmarks
// present in both inputs are gated: ns/op must stay within (1+tol)× the
// snapshot, allocs/op within the snapshot plus a small warm-up
// slack, and B/op within the snapshot plus a few bytes of amortised growth.
// A snapshot entry with a heap_MB figure also holds the benchmark's
// reported heap_MB metric to (1+tol)× it. Improvements are reported but
// never fail the gate (refresh the snapshot to bank them). The core counts
// the snapshot was recorded with are printed next to this machine's, since
// every timing ceiling is relative to that hardware.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// baselineEntry mirrors one "benchmarks" record of BENCH_platform.json.
type baselineEntry struct {
	NsPerOp     *float64 `json:"ns_per_op"`
	SPerOp      *float64 `json:"s_per_op"`
	BPerOp      *float64 `json:"b_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	// SpecsPerS is a throughput floor (sweep specs per second, reported by
	// the distributed-sweep benchmark via b.ReportMetric): unlike the ns/op
	// ceiling, the gate fails when the measurement falls BELOW the snapshot
	// by more than the tolerance.
	SpecsPerS *float64 `json:"specs_per_s"`
	// HeapMB is a memory ceiling (MB of heap the benchmark reports via
	// b.ReportMetric as heap_MB).
	HeapMB *float64 `json:"heap_MB"`
}

// environment is where the snapshot's numbers were recorded.
type environment struct {
	Nproc      int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// baselineFile is the subset of BENCH_platform.json the gate reads.
type baselineFile struct {
	Environment environment              `json:"environment"`
	Benchmarks  map[string]baselineEntry `json:"benchmarks"`
}

// measurement is one benchmark's result: a single result line, or the
// per-field median of every line reported under its name.
type measurement struct {
	nsPerOp     float64
	bPerOp      float64
	allocsPerOp float64
	specsPerS   float64
	heapMB      float64
	hasMem      bool
	// samples is how many result lines were folded in; nsMin/nsMax and
	// specsMin/specsMax are their spread.
	samples            int
	nsMin, nsMax       float64
	specsMin, specsMax float64
}

// benchLine matches `BenchmarkName[-P]  N  X ns/op [...]` output lines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench extracts the ns/op, B/op and allocs/op figures from `go test
// -bench` output, folding repeated samples of one name into their median.
// Sub-benchmark names keep their slashes; the -GOMAXPROCS suffix is
// stripped so names match the snapshot's keys.
func parseBench(lines []string) map[string]measurement {
	all := make(map[string][]measurement)
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name, rest := m[1], m[2]
		fields := strings.Fields(rest)
		var meas measurement
		seen := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				meas.nsPerOp = v
				seen = true
			case "B/op":
				meas.bPerOp = v
				meas.hasMem = true
			case "allocs/op":
				meas.allocsPerOp = v
				meas.hasMem = true
			case "specs/s":
				meas.specsPerS = v
			case "heap_MB":
				meas.heapMB = v
			}
		}
		if seen {
			all[name] = append(all[name], meas)
		}
	}
	out := make(map[string]measurement, len(all))
	for name, samples := range all {
		out[name] = summarize(samples)
	}
	return out
}

// summarize takes the per-field median of a benchmark's samples and
// records the ns/op and specs/s spread.
func summarize(samples []measurement) measurement {
	field := func(get func(measurement) float64) []float64 {
		vs := make([]float64, len(samples))
		for i, m := range samples {
			vs[i] = get(m)
		}
		slices.Sort(vs)
		return vs
	}
	ns := field(func(m measurement) float64 { return m.nsPerOp })
	specs := field(func(m measurement) float64 { return m.specsPerS })
	out := measurement{
		nsPerOp:     median(ns),
		bPerOp:      median(field(func(m measurement) float64 { return m.bPerOp })),
		allocsPerOp: median(field(func(m measurement) float64 { return m.allocsPerOp })),
		specsPerS:   median(specs),
		heapMB:      median(field(func(m measurement) float64 { return m.heapMB })),
		samples:     len(samples),
		nsMin:       ns[0],
		nsMax:       ns[len(ns)-1],
		specsMin:    specs[0],
		specsMax:    specs[len(specs)-1],
	}
	for _, m := range samples {
		out.hasMem = out.hasMem || m.hasMem
	}
	return out
}

// median of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// spread describes a measurement's sample count and min–max range.
func (m measurement) spread() string {
	if m.specsPerS > 0 {
		return fmt.Sprintf("median of %d, %.1f–%.1f specs/s", m.samples, m.specsMin, m.specsMax)
	}
	return fmt.Sprintf("median of %d, %.0f–%.0f ns/op", m.samples, m.nsMin, m.nsMax)
}

// gate compares measurements against the snapshot, returning human-readable
// failures. Benchmarks missing from either side are skipped; `require`
// names must all have been gated.
func gate(meas map[string]measurement, base map[string]baselineEntry, tol float64, require []string) (failures, notes []string) {
	gated := make(map[string]bool)
	for name, b := range base {
		got, ok := meas[name]
		if !ok {
			continue
		}
		want := 0.0
		switch {
		case b.NsPerOp != nil:
			want = *b.NsPerOp
		case b.SPerOp != nil:
			want = *b.SPerOp * 1e9
		}
		if want > 0 {
			gated[name] = true
			limit := want * (1 + tol)
			switch {
			case got.nsPerOp > limit:
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%% (limit %.0f)",
					name, got.nsPerOp, want, tol*100, limit))
			case got.nsPerOp < want/(1+tol):
				notes = append(notes, fmt.Sprintf(
					"%s: %.0f ns/op is >%.0f%% faster than baseline %.0f — consider refreshing BENCH_platform.json",
					name, got.nsPerOp, tol*100, want))
			}
		}
		if b.SpecsPerS != nil && got.specsPerS > 0 {
			gated[name] = true
			floor := *b.SpecsPerS / (1 + tol)
			switch {
			case got.specsPerS < floor:
				failures = append(failures, fmt.Sprintf(
					"%s: %.1f specs/s falls below baseline %.1f specs/s by more than %.0f%% (floor %.1f)",
					name, got.specsPerS, *b.SpecsPerS, tol*100, floor))
			case got.specsPerS > *b.SpecsPerS*(1+tol):
				notes = append(notes, fmt.Sprintf(
					"%s: %.1f specs/s is >%.0f%% faster than baseline %.1f — consider refreshing BENCH_platform.json",
					name, got.specsPerS, tol*100, *b.SpecsPerS))
			}
		}
		if b.HeapMB != nil {
			switch limit := *b.HeapMB * (1 + tol); {
			case got.heapMB == 0:
				failures = append(failures, fmt.Sprintf(
					"%s: baseline has a %.1f heap_MB ceiling but the benchmark reported no heap_MB",
					name, *b.HeapMB))
			case got.heapMB > limit:
				failures = append(failures, fmt.Sprintf(
					"%s: %.1f heap_MB exceeds baseline %.1f heap_MB by more than %.0f%% (limit %.1f)",
					name, got.heapMB, *b.HeapMB, tol*100, limit))
			}
		}
		if got.hasMem && b.AllocsPerOp != nil {
			// Allow a couple of allocations of warm-up slack, exactly like
			// the historical awk guard.
			if allowed := *b.AllocsPerOp + 2; got.allocsPerOp > allowed {
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f allocs/op exceeds baseline %.0f (+2 slack)",
					name, got.allocsPerOp, *b.AllocsPerOp))
			}
		}
		if got.hasMem && b.BPerOp != nil {
			if allowed := *b.BPerOp*(1+tol) + 16; got.bPerOp > allowed {
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f B/op exceeds baseline %.0f (tolerance %.0f%% + 16 B slack)",
					name, got.bPerOp, *b.BPerOp, tol*100))
			}
		}
	}
	for _, name := range require {
		if !gated[name] {
			failures = append(failures, fmt.Sprintf(
				"%s: required benchmark missing from the measurements or the baseline", name))
		}
	}
	return failures, notes
}

// envLine sets the snapshot's recording environment beside this machine's:
// a ceiling recorded on more (or fewer) cores than the gate runs on is
// not a like-for-like comparison.
func envLine(base environment, nproc, gomaxprocs int) string {
	recorded := "unrecorded"
	if base.Nproc > 0 {
		recorded = fmt.Sprintf("nproc=%d GOMAXPROCS=%d", base.Nproc, base.GOMAXPROCS)
	}
	return fmt.Sprintf("benchgate: baseline recorded with %s; this machine nproc=%d GOMAXPROCS=%d",
		recorded, nproc, gomaxprocs)
}

func run() error {
	benchPath := flag.String("bench", "", "path to `go test -bench` output")
	basePath := flag.String("baseline", "BENCH_platform.json", "path to the benchmark snapshot")
	tol := flag.Float64("tol", 0.25, "relative ns/op tolerance before the gate fails")
	require := flag.String("require", "", "comma-separated benchmark names that must be gated")
	flag.Parse()
	if *benchPath == "" {
		return fmt.Errorf("-bench is required")
	}

	bf, err := os.Open(*benchPath)
	if err != nil {
		return err
	}
	defer bf.Close()
	var lines []string
	sc := bufio.NewScanner(bf)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return err
	}

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *basePath, err)
	}

	var req []string
	if *require != "" {
		for _, r := range strings.Split(*require, ",") {
			if r = strings.TrimSpace(r); r != "" {
				req = append(req, r)
			}
		}
	}

	fmt.Println(envLine(base.Environment, runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	meas := parseBench(lines)
	for _, name := range slices.Sorted(maps.Keys(meas)) {
		if m := meas[name]; m.samples > 1 {
			fmt.Printf("%s: %s\n", name, m.spread())
		}
	}
	failures, notes := gate(meas, base.Benchmarks, *tol, req)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond the ±%.0f%% gate", len(failures), *tol*100)
	}
	fmt.Println("benchgate: all gated benchmarks within tolerance")
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// Command perfbench is the repository benchmark: it runs one named workload
// through the public entry points for a fixed number of host seconds,
// checks the workload's outputs, and prints its end-to-end metrics (or,
// with --trace 1, its per-layer metrics and the tracing overhead) as one
// JSON object on the last line of standard output.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 12 --trace 0
//
// NOTES.md in this directory explains the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"centurion/internal/experiments"
)

// workload is one named input set the benchmark runs.
type workload struct {
	name string
	run  func(e *env) (*report, error)
}

var workloads = []workload{
	{"paper-cold", runPaperCold},
	{"serve-mixed", runServeMixed},
	{"fabric-kills", runFabricKills},
	{"grid-64", runGrid64},
}

// env is what a workload run gets: its seed, its measuring time, the
// tracer (nil when untraced), its sizes and a scratch directory.
type env struct {
	seed    uint64
	seconds float64
	tr      *tracer
	sz      sizes
	tmp     string
}

func (e *env) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(e.seconds * float64(time.Second)))
}

// sizes fix how much work one operation of each workload is.
type sizes struct {
	setupReps     int // set-ups per run; setup_s is their median
	paperRuns     int // runs per Table I/II row
	serveHot      int // specs in the serve-mixed hot set
	serveMs       int
	fabricMs      int
	fabricW       int
	fabricH       int
	fabricModels  []string
	fabricFaults  []int
	fabricTopos   []string
	gridW, gridH  int
	gridMs        int
	gridSetupReps int
	newReps       int // builds timed for centurion.new_ms
}

var fullSizes = sizes{
	setupReps:     15,
	paperRuns:     3,
	serveHot:      6,
	serveMs:       1000,
	fabricMs:      80,
	fabricW:       8,
	fabricH:       4,
	fabricModels:  []string{"none", "ni", "ffw"},
	fabricFaults:  []int{0, 1, 2, 3, 4, 6, 8, 12, 16},
	fabricTopos:   []string{"mesh", "torus", "cmesh"},
	gridW:         64,
	gridH:         64,
	gridMs:        100,
	gridSetupReps: 3,
	newReps:       3,
}

// report is what one workload run measured and checked.
type report struct {
	attempted, failed int
	problems          []string // failed correctness checks
	setupS            float64
	runsPerS          float64
	waitP50Ms         float64
	heapMB            float64
	sim               simStats // simulated statistics of the workload's fixed reference set
	digest            string   // digest of the reference set's results
	notes             []string // sample counts and other context, printed before the result
	layer             map[string]float64
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// simStats are simulated (not host-time) totals; a change that only speeds
// up the simulator must leave them identical.
type simStats struct {
	instances, switches, dropped uint64
}

// metric is one named, united output value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"wait_p50_ms", "ms"},
	{"heap_mb", "MB"},
}

func (r *report) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":     r.setupS,
		"runs_per_s":  r.runsPerS,
		"wait_p50_ms": r.waitP50Ms,
		"heap_mb":     r.heapMB,
	}
}

// outDir holds the spans and scratch files, beside the build in the
// directory the benchmark runs from.
const outDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload name")
	seed := flags.Uint64("seed", 1, "workload seed")
	seconds := flags.Float64("seconds", 10, "host seconds to measure")
	traceFlag := flags.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	traced := *traceFlag == 1
	printHeader(w.name, *seed, *seconds, traced)

	var untraced *result
	if traced {
		// The overhead baseline is an untraced run of its own, in a fresh
		// process like every run, so its caches start empty too.
		var err error
		if untraced, err = runUntracedChild(args); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: untraced baseline: %v\n", err)
			return 1
		}
	}

	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{seed: *seed, seconds: *seconds, sz: fullSizes, tmp: tmp}
	if traced {
		e.tr = newTracer()
	}
	rep, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	fmt.Printf("# simulated: instances=%d task_switches=%d packets_dropped=%d digest=%s\n",
		rep.sim.instances, rep.sim.switches, rep.sim.dropped, rep.digest)
	for _, p := range rep.problems {
		fmt.Println("# CHECK FAILED: " + p)
	}

	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric),
	}
	if traced {
		spans, _, _ := e.tr.snapshot()
		path := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("# spans: %d written to %s\n", len(spans), path)
		values, missing := perLayerValues(e.tr, rep, untraced)
		if len(missing) > 0 {
			fmt.Printf("# not measured on this workload (reported as 0): %s\n", strings.Join(missing, " "))
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		res.Correct = res.Correct && untraced.Correct
		res.Attempted += untraced.Attempted
		res.Failed += untraced.Failed
	} else {
		v := rep.endToEndValues()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{v[m.name], m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printHeader records what the numbers depend on.
func printHeader(name string, seed uint64, seconds float64, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit, sourceDigest())
}

// sourceDigest hashes every Go source and module file under the working
// directory, so a run outside a git checkout still names the code it ran.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runUntracedChild reruns this command with --trace 0 in a new process and
// returns its result line.
func runUntracedChild(args []string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var childArgs []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--trace" || a == "-trace" {
			i++
			continue
		}
		if strings.HasPrefix(a, "--trace=") || strings.HasPrefix(a, "-trace=") {
			continue
		}
		childArgs = append(childArgs, a)
	}
	childArgs = append(childArgs, "--trace", "0")
	cmd := exec.Command(self, childArgs...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		if !strings.HasPrefix(l, "# perfbench") && !strings.HasPrefix(l, "# nproc") {
			fmt.Println("# untraced: " + strings.TrimPrefix(l, "# "))
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("parsing result: %w", err)
	}
	return &res, nil
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them; one a workload does not exercise reads 0 and is listed as not
// measured.
var perLayer = []metricDef{
	{"experiments.run_ms_p50", "ms"},
	{"experiments.run_ms_p90", "ms"},
	{"experiments.setup_ms_p50", "ms"},
	{"experiments.reduce_ms_p50", "ms"},
	{"experiments.warm_hit_ratio", "ratio"},
	{"experiments.fork_ratio", "ratio"},
	{"experiments.warm_bytes_mb", "MB"},
	{"experiments.pool_reuse_ratio", "ratio"},
	{"centurion.new_ms", "ms"},
	{"centurion.ns_per_node_tick", "ns"},
	{"centurion.us_per_instance", "us"},
	{"centurion.instances_completed", "count"},
	{"centurion.task_switches", "count"},
	{"centurion.packets_dropped", "count"},
	{"server.admit_queue_ms_p50", "ms"},
	{"server.exec_ms_p50", "ms"},
	{"server.respond_ms_p50", "ms"},
	{"server.hit_p50_ms", "ms"},
	{"server.hit_p90_ms", "ms"},
	{"server.miss_p90_ms", "ms"},
	{"server.hit_samples", "count"},
	{"server.miss_samples", "count"},
	{"server.hit_response_kb", "KB"},
	{"server.miss_response_kb", "KB"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.queued_max", "count"},
	{"dispatch.lease_wait_ms_p50", "ms"},
	{"dispatch.exec_ms_p50", "ms"},
	{"dispatch.rpc_lease_ms", "ms"},
	{"dispatch.rpc_heartbeat_ms", "ms"},
	{"dispatch.rpc_progress_ms", "ms"},
	{"dispatch.rpc_checkpoint_ms", "ms"},
	{"dispatch.rpc_complete_ms", "ms"},
	{"dispatch.recovery_ms", "ms"},
	{"dispatch.checkpoint_kb", "KB"},
	{"dispatch.useful_window_ratio", "ratio"},
	{"dispatch.requeued", "count"},
	{"dispatch.resumes", "count"},
	{"dispatch.stale_rejected", "count"},
	{"store.put_ms_p50", "ms"},
	{"store.put_ms_p90", "ms"},
	{"store.get_ms_p50", "ms"},
	{"store.puts", "count"},
	{"store.bytes_mb", "MB"},
	{"layer.experiments.self_ms", "ms"},
	{"layer.experiments.spans", "count"},
	{"layer.experiments.failed", "count"},
	{"layer.centurion.self_ms", "ms"},
	{"layer.centurion.spans", "count"},
	{"layer.centurion.failed", "count"},
	{"layer.metrics.self_ms", "ms"},
	{"layer.metrics.spans", "count"},
	{"layer.metrics.failed", "count"},
	{"layer.server.self_ms", "ms"},
	{"layer.server.spans", "count"},
	{"layer.server.failed", "count"},
	{"layer.dispatch.self_ms", "ms"},
	{"layer.dispatch.spans", "count"},
	{"layer.dispatch.failed", "count"},
	{"layer.store.self_ms", "ms"},
	{"layer.store.spans", "count"},
	{"layer.store.failed", "count"},
	{"overhead.setup_s", "s"},
	{"overhead.runs_per_s", "1/s"},
	{"overhead.wait_p50_ms", "ms"},
	{"overhead.heap_mb", "MB"},
}

// sampleMedians name the per-layer medians taken from tracer sample lists.
var sampleMedians = map[string]string{
	"experiments.run_ms_p50":     "experiments.run_ms",
	"experiments.setup_ms_p50":   "experiments.setup_ms",
	"experiments.reduce_ms_p50":  "experiments.reduce_ms",
	"server.admit_queue_ms_p50":  "server.admit_ms",
	"server.exec_ms_p50":         "server.exec_ms",
	"server.respond_ms_p50":      "server.respond_ms",
	"server.hit_p50_ms":          "server.hit_ms",
	"dispatch.lease_wait_ms_p50": "dispatch.lease_wait_ms",
	"dispatch.exec_ms_p50":       "dispatch.exec_ms",
	"dispatch.rpc_lease_ms":      "dispatch.rpc_lease_ms",
	"dispatch.rpc_heartbeat_ms":  "dispatch.rpc_heartbeat_ms",
	"dispatch.rpc_progress_ms":   "dispatch.rpc_progress_ms",
	"dispatch.rpc_checkpoint_ms": "dispatch.rpc_checkpoint_ms",
	"dispatch.rpc_complete_ms":   "dispatch.rpc_complete_ms",
	"dispatch.recovery_ms":       "dispatch.recovery_ms",
	"store.put_ms_p50":           "store.put_ms",
	"store.get_ms_p50":           "store.get_ms",
}

// sampleP90s name the per-layer p90s; each is missing below 100 samples.
var sampleP90s = map[string]string{
	"experiments.run_ms_p90": "experiments.run_ms",
	"server.hit_p90_ms":      "server.hit_ms",
	"server.miss_p90_ms":     "server.miss_ms",
	"store.put_ms_p90":       "store.put_ms",
}

// perLayerValues reduces the traced run to every per-layer metric and
// names the ones this workload did not measure.
func perLayerValues(tr *tracer, rep *report, untraced *result) (map[string]float64, []string) {
	spans, samples, sums := tr.snapshot()
	v := make(map[string]float64)
	for _, m := range perLayer {
		v[m.name] = 0
	}
	measured := make(map[string]bool)
	set := func(name string, x float64) {
		v[name] = x
		measured[name] = true
	}
	for name, src := range sampleMedians {
		if x, ok := median(samples[src]); ok {
			set(name, x)
		}
	}
	for name, src := range sampleP90s {
		if x, ok := highPercentile(samples[src], 0.9); ok {
			set(name, x)
		}
	}
	if sums["centurion.node_ticks"] > 0 {
		set("centurion.ns_per_node_tick", sums["centurion.sim_ns"]/sums["centurion.node_ticks"])
	}
	if sums["centurion.sim_instances"] > 0 {
		set("centurion.us_per_instance", sums["centurion.sim_ns"]/1e3/sums["centurion.sim_instances"])
	}
	set("centurion.instances_completed", float64(rep.sim.instances))
	set("centurion.task_switches", float64(rep.sim.switches))
	set("centurion.packets_dropped", float64(rep.sim.dropped))
	for name, x := range layerTotals(spans) {
		set(name, x)
	}
	for name, x := range rep.layer {
		set(name, x)
	}
	traced := rep.endToEndValues()
	for _, m := range endToEnd {
		set("overhead."+m.name, traced[m.name]-untraced.Metrics[m.name].Value)
	}
	var missing []string
	for _, m := range perLayer {
		if !measured[m.name] {
			missing = append(missing, m.name)
		}
	}
	sort.Strings(missing)
	return v, missing
}

// coldStart empties the process-wide caches a set-up must rebuild: two
// collections drop every pooled platform (sync.Pool keeps a victim copy
// across one), and the warm-start prefix cache is cleared.
func coldStart() {
	runtime.GC()
	runtime.GC()
	experiments.ResetWarmStart()
}

// setupMedian times build reps times and returns the median in seconds.
// build is told whether it is the last rep, whose result the run keeps.
func setupMedian(reps int, build func(last bool) error) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		coldStart()
		t0 := time.Now()
		if err := build(i == reps-1); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	m, _ := median(secs)
	return m, nil
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cacheCounters are the warm-start and platform-pool counters; their change
// over a timed phase gives the experiments per-layer ratios.
type cacheCounters struct {
	warm experiments.WarmStartStats
	pool experiments.PoolStatsSnapshot
}

func readCaches() cacheCounters {
	return cacheCounters{experiments.WarmStats(), experiments.PoolStats()}
}

// add accumulates the counters of d since base into c (used where the warm
// cache is reset between rounds, which zeroes its counters).
func (c *cacheCounters) add(base, d cacheCounters) {
	c.warm.Hits += d.warm.Hits - base.warm.Hits
	c.warm.Misses += d.warm.Misses - base.warm.Misses
	c.warm.ForksServed += d.warm.ForksServed - base.warm.ForksServed
	c.pool.PlatformsCreated += d.pool.PlatformsCreated - base.pool.PlatformsCreated
	c.pool.PlatformsReused += d.pool.PlatformsReused - base.pool.PlatformsReused
	c.warm.Bytes = d.warm.Bytes
}

// layerValues reduces accumulated counters to the ratios; runs is how many
// runs the phase executed.
func (c cacheCounters) layerValues(runs float64) map[string]float64 {
	hits, misses := float64(c.warm.Hits), float64(c.warm.Misses)
	created, reused := float64(c.pool.PlatformsCreated), float64(c.pool.PlatformsReused)
	return map[string]float64{
		"experiments.warm_hit_ratio":   ratio(hits, hits+misses),
		"experiments.fork_ratio":       ratio(float64(c.warm.ForksServed), runs),
		"experiments.warm_bytes_mb":    float64(c.warm.Bytes) / (1 << 20),
		"experiments.pool_reuse_ratio": ratio(reused, created+reused),
	}
}

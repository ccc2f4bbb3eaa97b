package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"centurion/internal/sim"
)

// layers are the repository modules a span's name can start with; the
// per-layer self time, span count and failures are reported for each.
var layers = []string{"experiments", "centurion", "metrics", "server", "dispatch", "store"}

// span is one timed call into a layer, recorded by the benchmark around its
// own calls into the program. A span whose Parent is 0 is a root.
type span struct {
	ID     uint64
	Parent uint64
	Req    string
	Name   string
	Start  time.Time
	End    time.Time
	Failed bool
}

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer keeps every span, per-layer sample lists and running sums in
// memory until the run ends. A nil *tracer is the untraced mode: every
// method is a no-op, so workloads call it unconditionally.
type tracer struct {
	mu      sync.Mutex
	next    uint64
	spans   []span
	samples map[string][]float64
	sums    map[string]float64
}

func newTracer() *tracer {
	return &tracer{samples: make(map[string][]float64), sums: make(map[string]float64)}
}

// id reserves a span ID, so children can name a parent recorded later.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved ID; 0 reserves one.
func (t *tracer) record(id, parent uint64, req, name string, start, end time.Time, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Failed: failed})
}

// sample appends one observation to a named per-layer sample list.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// add accumulates a named per-layer sum.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

// snapshot copies the recorded data for reduction after the run.
func (t *tracer) snapshot() ([]span, map[string][]float64, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	samples := make(map[string][]float64, len(t.samples))
	for k, v := range t.samples {
		samples[k] = append([]float64(nil), v...)
	}
	sums := make(map[string]float64, len(t.sums))
	for k, v := range t.sums {
		sums[k] = v
	}
	return append([]span(nil), t.spans...), samples, sums
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children count once, and a child's
// time outside its parent's interval is ignored.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := c.Start, c.End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
		var covered time.Duration
		var curA, curB time.Time
		for i, v := range ivs {
			switch {
			case i == 0:
				curA, curB = v.a, v.b
			case v.a.After(curB):
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			case v.b.After(curB):
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB.Sub(curA)
		}
		self[s.ID] = s.End.Sub(s.Start) - covered
	}
	return self
}

// layerTotals reduces spans to each layer's summed self time (ms), span
// count and failed-span count.
func layerTotals(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, l := range layers {
		out["layer."+l+".self_ms"] = 0
		out["layer."+l+".spans"] = 0
		out["layer."+l+".failed"] = 0
	}
	for _, s := range spans {
		l := s.layer()
		if _, ok := out["layer."+l+".spans"]; !ok {
			continue
		}
		out["layer."+l+".self_ms"] += ms(self[s.ID])
		out["layer."+l+".spans"]++
		if s.Failed {
			out["layer."+l+".failed"]++
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines, times in microseconds from the
// earliest span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			ID      uint64  `json:"id"`
			Parent  uint64  `json:"parent,omitempty"`
			Req     string  `json:"req,omitempty"`
			Name    string  `json:"name"`
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
			Failed  bool    `json:"failed,omitempty"`
		}{s.ID, s.Parent, s.Req, s.Name, us(s.Start.Sub(epoch)), us(s.End.Sub(epoch)), s.Failed}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayGap separates replayed windows from simulated ones. A warm-start
// fork or a cached full-duration entry reports its prefix windows back to
// back, well under a microsecond apart; simulating even the smallest
// window (one ms of an 8×4 fabric) takes tens of microseconds.
const replayGap = 2 * time.Microsecond

// runClock times one run through its per-window progress callbacks: the
// call, the first window, the last window and the return split the run into
// set-up (experiments), simulation (centurion) and reduction (metrics).
type runClock struct {
	call, first, last time.Time
	windows           int
	simWindows        int     // windows after the first that were simulated
	simInstances      float64 // instances completed in those windows
}

func newRunClock() *runClock { return &runClock{call: time.Now()} }

// window observes one finished window and its throughput sample.
func (c *runClock) window(throughput float64) {
	now := time.Now()
	if c.windows == 0 {
		c.first = now
	} else if now.Sub(c.last) >= replayGap {
		c.simWindows++
		c.simInstances += throughput
	}
	c.last = now
	c.windows++
}

// finish records the run's phase spans under parent (the run's own span)
// and the per-run samples. nodes and windowMs size the simulated ticks.
func (c *runClock) finish(t *tracer, parent uint64, req string, end time.Time, nodes, windowMs int, failed bool) {
	if t == nil {
		return
	}
	first, last := c.first, c.last
	if c.windows == 0 {
		first, last = end, end
	}
	t.record(0, parent, req, "experiments.setup", c.call, first, failed)
	t.record(0, parent, req, "centurion.simulate", first, last, false)
	t.record(0, parent, req, "metrics.reduce", last, end, false)
	t.sample("experiments.run_ms", ms(end.Sub(c.call)))
	t.sample("experiments.setup_ms", ms(first.Sub(c.call)))
	t.sample("experiments.reduce_ms", ms(end.Sub(last)))
	t.add("centurion.sim_ns", float64(last.Sub(first)))
	t.add("centurion.node_ticks", float64(nodes)*float64(c.simWindows)*float64(windowMs)*sim.TicksPerMs)
	t.add("centurion.sim_instances", c.simInstances)
}

package centurion

import (
	"fmt"

	"centurion/internal/aim"
	"centurion/internal/noc"
	"centurion/internal/node"
	"centurion/internal/sim"
	"centurion/internal/thermal"
)

// Checkpoint is a deep, self-contained capture of one platform's mutable
// simulation state at a between-step boundary (DESIGN.md §15): the packet
// arena, ring slots and router records, PE/engine/directory/thermal state,
// every RNG stream, the activity sets and the pending wake/retry timers.
// Everything construction-derived — topology, task graph, routing rows,
// wiring closures — stays with the platform, so restoring a
// checkpoint into a same-shape platform is a handful of bulk copies, and the
// fault-aware route tables are shared by reference across every fork.
//
// What is deliberately NOT captured is the event queue itself (it holds
// closures): Restore rebuilds the pending wake and controller-retry events
// from the recorded timers, and fault schedules must be re-applied by the
// caller (Controller.ApplySchedule skips the events that already fired
// before the checkpoint). One checkpoint may be restored into many
// platforms — it is read-only during Restore — which is what makes
// fork-per-variant sweeps cheap.
type Checkpoint struct {
	// Shape identity: a checkpoint restores only into a platform built for
	// the same geometry.
	width, height int
	topology      string

	now  sim.Tick
	seed uint64
	rng  uint64

	nextPkt  uint64
	nextInst uint64
	counters Counters

	net     noc.NetworkState
	dir     node.DirectoryState
	pes     []node.PEState
	engines []aim.EngineState

	hasHeat   bool
	heat      thermal.State
	nextHeat  sim.Tick
	throttled []bool

	peActive  sim.ActiveSetState
	engActive sim.ActiveSetState
	peWakeAt  []sim.Tick
	engWakeAt []sim.Tick

	retries []retryRec
}

// retryRec is one pending controller-retry in checkpoint form: the held
// packet as an arena slot, the tap, and the scheduled attempt tick.
type retryRec struct {
	slot int32
	tap  noc.NodeID
	at   sim.Tick
}

// Now returns the simulation tick the checkpoint was taken at.
func (cp *Checkpoint) Now() sim.Tick { return cp.now }

// grow returns s resized to n elements, reallocating only when needed (the
// retained elements keep their backing slices, so repeated snapshots into
// the same Checkpoint stop allocating once warm).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Snapshot captures the platform's full mutable state into a fresh
// Checkpoint. Use SnapshotInto to reuse a checkpoint's allocations.
func (p *Platform) Snapshot() *Checkpoint {
	cp := &Checkpoint{}
	p.SnapshotInto(cp)
	return cp
}

// SnapshotInto captures the platform's state into cp, reusing its backing
// storage. The platform must be at a between-step boundary (which is the
// only externally observable state — Step never returns mid-tick).
func (p *Platform) SnapshotInto(cp *Checkpoint) {
	cp.width, cp.height = p.Cfg.Width, p.Cfg.Height
	cp.topology = p.Cfg.Topology
	cp.now = p.clock.Now()
	cp.seed = p.Cfg.Seed
	cp.rng = p.rng.State()
	cp.nextPkt, cp.nextInst = p.nextPkt, p.nextInst
	cp.counters = p.counters

	p.Net.SaveState(&cp.net)
	p.Dir.SaveState(&cp.dir)

	cp.pes = grow(cp.pes, len(p.pes))
	for i, pe := range p.pes {
		pe.SaveState(&cp.pes[i], p.pool)
	}
	cp.engines = grow(cp.engines, len(p.engines))
	for i, e := range p.engines {
		s, ok := e.(aim.StateSnapshotter)
		if !ok {
			panic(fmt.Sprintf("centurion: engine %q does not support checkpointing", e.Name()))
		}
		s.SaveState(&cp.engines[i])
	}

	cp.hasHeat = p.heat != nil
	if p.heat != nil {
		p.heat.SaveState(&cp.heat)
		cp.nextHeat = p.nextHeat
		cp.throttled = append(cp.throttled[:0], p.throttled...)
	} else {
		cp.heat.Temp = cp.heat.Temp[:0]
		cp.heat.Last = cp.heat.Last[:0]
		cp.nextHeat = 0
		cp.throttled = cp.throttled[:0]
	}

	p.peSet.SaveState(&cp.peActive)
	p.engSet.SaveState(&cp.engActive)
	cp.peWakeAt = append(cp.peWakeAt[:0], p.peWake.at...)
	cp.engWakeAt = append(cp.engWakeAt[:0], p.engWake.at...)

	cp.retries = grow(cp.retries, len(p.ctlRetry))
	for i := range p.ctlRetry {
		rec := &p.ctlRetry[i]
		idx, ok := p.pool.ArenaIndex(rec.pkt)
		if !ok {
			panic("centurion: retry packet not bound to the platform pool")
		}
		cp.retries[i] = retryRec{slot: idx, tap: rec.tap, at: rec.at}
	}
}

// Restore rewinds the platform to the checkpointed state. The platform must
// have been built for the same shape (dimensions, topology, engine kinds,
// thermal configuration); everything else about its current state — fresh,
// mid-run, or leased back from a pool — is overwritten. Pending fault
// schedules are NOT part of a checkpoint: re-apply them after Restore
// (Controller.ApplySchedule skips already-fired events).
//
// Restoring is allocation-free at steady state: bulk copies into retained
// backing, plus one event-queue entry per pending wake or retry.
func (p *Platform) Restore(cp *Checkpoint) {
	if cp.width != p.Cfg.Width || cp.height != p.Cfg.Height || cp.topology != p.Cfg.Topology ||
		len(cp.pes) != len(p.pes) {
		panic(fmt.Sprintf("centurion: checkpoint shape mismatch: checkpoint is %dx%d %q (%d nodes), platform is %dx%d %q (%d nodes)",
			cp.width, cp.height, cp.topology, len(cp.pes), p.Cfg.Width, p.Cfg.Height, p.Cfg.Topology, len(p.pes)))
	}
	if cp.hasHeat != (p.heat != nil) {
		panic("centurion: checkpoint thermal-model mismatch")
	}

	p.Cfg.Seed = cp.seed
	p.clock.SetNow(cp.now)
	p.events.Clear()
	// Drop the previous run's retry records — the arena restore below
	// rewrites every packet wholesale, so the held pointers must not be
	// reclaimed through Put.
	for i := range p.ctlRetry {
		p.ctlRetry[i] = ctlRetryRec{}
	}
	p.ctlRetry = p.ctlRetry[:0]
	p.rng.SetState(cp.rng)
	p.nextPkt, p.nextInst = cp.nextPkt, cp.nextInst
	p.counters = cp.counters

	// The arena first: every packet reference restored below resolves
	// against it.
	p.Net.LoadState(&cp.net)
	p.Dir.LoadState(&cp.dir)
	for i, pe := range p.pes {
		pe.LoadState(&cp.pes[i], p.pool)
	}
	for i, e := range p.engines {
		s, ok := e.(aim.StateSnapshotter)
		if !ok {
			panic(fmt.Sprintf("centurion: engine %q does not support checkpointing", e.Name()))
		}
		s.LoadState(&cp.engines[i])
	}

	if p.heat != nil {
		p.heat.LoadState(&cp.heat)
		p.nextHeat = cp.nextHeat
		copy(p.throttled, cp.throttled)
	}

	p.peSet.LoadState(&cp.peActive)
	p.engSet.LoadState(&cp.engActive)
	// Rebuild the pending wake events from the recorded timers, using the
	// target's own bound closures. Only the earliest pending wake per member
	// is recorded; superseded later events the source queue may still hold
	// are spurious by the stepping core's contract (an extra tick on a
	// parked component is observation-free), so dropping them preserves
	// bit-identity of every counter and series.
	p.peWake.restore(cp.peWakeAt)
	p.engWake.restore(cp.engWakeAt)

	// Re-arm the pending controller retries in record order — the slice
	// order mirrors the retry events' seq order in the source queue.
	for i := range cp.retries {
		rec := cp.retries[i]
		pkt := p.pool.ArenaPacket(rec.slot)
		p.ctlRetry = append(p.ctlRetry, ctlRetryRec{pkt: pkt, tap: rec.tap, at: rec.at})
		tap := rec.tap
		p.events.Schedule(rec.at, func(later sim.Tick) { p.injectConfig(tap, pkt, later) })
	}
}

// restore rebuilds a wake table from a recorded timer array: the pending
// tick per member plus one freshly scheduled event bound to the target's
// own closure.
func (w *wakeTable) restore(at []sim.Tick) {
	for id := range w.at {
		w.at[id] = at[id]
		if at[id] >= 0 {
			w.events.Schedule(at[id], w.fn[id])
		}
	}
}

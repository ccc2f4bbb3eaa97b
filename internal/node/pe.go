package node

import (
	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// Env is the platform interface a processing element acts through: packet
// injection into its router, the shared task directory, the application
// graph, ID allocation, and the instance-completion report that feeds the
// throughput metric.
type Env interface {
	// Inject offers a packet to the node's router; false means back-pressure
	// (the PE retries next tick).
	Inject(from noc.NodeID, p *noc.Packet, now sim.Tick) bool
	// Directory is the shared task directory.
	Directory() *Directory
	// Graph is the application task graph.
	Graph() *taskgraph.Graph
	// NewPacket acquires a zeroed packet carrying a fresh fabric-unique ID
	// (from the platform's recycling pool when one is attached). The PE owns
	// it until it is injected or freed.
	NewPacket() *noc.Packet
	// FreePacket returns a packet whose lifecycle ended at this PE —
	// processed to completion, consumed as a debug payload, or dropped —
	// to the platform's recycling pool. Must be the packet's final use.
	FreePacket(p *noc.Packet)
	// NextInstanceID allocates an application instance ID.
	NextInstanceID() uint64
	// InstanceCompleted reports a completed fork–join instance (a throughput
	// event). origin is the source node that generated it, so the platform
	// can deliver the completion acknowledgement that closes the source's
	// flow-control window.
	InstanceCompleted(inst uint64, origin, at noc.NodeID, now sim.Tick)
	// InstanceLost reports an instance that can no longer complete (branches
	// dropped, join GC'd, join node switched away).
	InstanceLost(inst uint64, origin, at noc.NodeID, now sim.Tick)
	// PacketDropped accounts a packet the PE had to discard.
	PacketDropped(p *noc.Packet, at noc.NodeID, now sim.Tick)
}

// Params configure a processing element.
type Params struct {
	// QueueCap bounds the receive queue (packets); a full queue back-
	// pressures the router's local port.
	QueueCap int
	// DeadlineTicks stamps outgoing packets with Created+DeadlineTicks
	// (0 disables deadlines).
	DeadlineTicks sim.Tick
	// JoinTimeout GC's incomplete join instances that have not seen a new
	// branch for this long.
	JoinTimeout sim.Tick
	// PacketFlits is the serialised length of generated data packets.
	PacketFlits int
	// Window bounds the number of un-acknowledged instances a source may
	// have outstanding (end-to-end flow control; 0 disables it). Real
	// deployments implement this in the application: the join node returns
	// a completion acknowledgement to the work item's origin.
	Window int
	// InstanceTimeout reclaims a window slot when no acknowledgement
	// arrives in time (the instance was lost to drops, faults or task
	// switches).
	InstanceTimeout sim.Tick
}

// DefaultParams returns the experiment defaults: a 16-packet receive queue,
// 8 ms deadlines, 200 ms join GC, 2-flit packets.
func DefaultParams() Params {
	return Params{
		QueueCap:        16,
		DeadlineTicks:   sim.Ms(8),
		JoinTimeout:     sim.Ms(200),
		PacketFlits:     2,
		Window:          8,
		InstanceTimeout: sim.Ms(150),
	}
}

// Stats are cumulative per-PE counters.
type Stats struct {
	Generated   uint64 // work items emitted by a source task
	Processed   uint64 // data packets fully processed
	Completions uint64 // join completions at this node
	Switches    uint64 // task switches applied
	Misrouted   uint64 // packets that arrived for a task this node no longer runs
	Dropped     uint64 // packets discarded (no owner to retarget to, etc.)
	DebugSeen   uint64 // debug packets consumed
	StallTicks  uint64 // ticks the PE wanted to inject but was back-pressured
}

// pickTargets selects n destination nodes for task among the owners nearest
// to from, rotating the starting owner by salt (typically the instance ID).
// The rotation spreads successive instances over the 2n+2 nearest owners so
// that neighbouring producers do not all pile onto the same consumer — the
// locality-preserving load spread described in DESIGN.md §5. The returned
// slice is empty when no owner exists; it aliases buf (the caller's scratch,
// valid until the next call with the same buffer).
func pickTargets(d *Directory, task taskgraph.TaskID, from noc.NodeID, n int, salt uint64, buf []noc.NodeID) []noc.NodeID {
	pool := d.NearestK(task, from, 2*n+2)
	if len(pool) == 0 {
		return nil
	}
	out := buf[:0]
	start := int(salt % uint64(len(pool)))
	for i := 0; i < n; i++ {
		out = append(out, pool[(start+i)%len(pool)])
	}
	return out
}

// outstandingInst is one un-acknowledged instance in a source's
// flow-control window.
type outstandingInst struct {
	inst uint64
	born sim.Tick
}

// joinState tracks one in-flight join instance at a sink node.
type joinState struct {
	seen      int
	origin    noc.NodeID
	lastTouch sim.Tick
}

// PE is one processing element. It implements noc.Sink for its router's
// internal port.
type PE struct {
	ID  noc.NodeID
	env Env
	par Params

	task    taskgraph.TaskID
	alive   bool
	clockEn bool
	freqDiv int

	queue   []*noc.Packet
	current *noc.Packet
	busyEnd sim.Tick

	nextGen sim.Tick
	outbox  []*noc.Packet

	joins map[uint64]joinState
	// joinsPeak is the largest backlog joins has held since it was made —
	// allocation bookkeeping for resetJoins, not simulation state.
	joinsPeak int
	// outstanding tracks un-acked instances (flow control). It is bounded
	// by the window (8 by default), so a flat slice with linear scans beats
	// a map on the per-tick generate/ack/wake paths.
	outstanding []outstandingInst
	// admitRefused latches a queue-full admission rejection; the next
	// dequeue fires OnDequeue exactly when someone is actually waiting on
	// the freed space.
	admitRefused bool
	nextJoin     sim.Tick     // next join GC sweep
	workCount    uint64       // monotonically increasing "useful work" events
	targetBuf    []noc.NodeID // pickTargets scratch, reused across emissions

	// OnGenerate, when set, fires on every generated work item — the AIM's
	// generation stimulus (a busy source is doing work).
	OnGenerate func(now sim.Tick)
	// OnSwitch fires after the node switches task.
	OnSwitch func(from, to taskgraph.TaskID, now sim.Tick)
	// OnStir, when set, fires on any external stimulus that can change what
	// the next Tick does (packet accepted, window slot acknowledged, task or
	// knob changed). The platform's active-set stepping core uses it to
	// re-enroll a parked PE; spurious stirs are harmless (an extra Tick on an
	// idle PE is the no-op the dense scan would have executed anyway).
	OnStir func()
	// OnDequeue, when set, fires whenever receive-queue space frees (a
	// packet popped for processing, held packets released). The platform
	// wires it to the serving router's Stir so parked sink-blocked and
	// absorption-eligible ports re-evaluate on the same tick the dense scan
	// would have delivered.
	OnDequeue func()

	Stats Stats
}

// NewPE builds a processing element running the given initial task.
// genPhase staggers the first generation tick so that source nodes do not
// emit in lockstep (the run-to-run variation of the paper's "randomly
// initialised" experiments).
func NewPE(id noc.NodeID, env Env, par Params, task taskgraph.TaskID, genPhase sim.Tick) *PE {
	pe := &PE{
		ID:      id,
		env:     env,
		par:     par,
		task:    task,
		alive:   true,
		clockEn: true,
		freqDiv: 1,
		joins:   make(map[uint64]joinState),
	}
	pe.nextGen = genPhase
	return pe
}

// Task returns the task the PE currently runs.
func (pe *PE) Task() taskgraph.TaskID { return pe.task }

// Alive reports whether the PE is functioning.
func (pe *PE) Alive() bool { return pe.alive }

// WorkCount returns the monotonically increasing count of useful-work events
// (generations, processed packets); the nodes-active sampler diffs it.
func (pe *PE) WorkCount() uint64 { return pe.workCount }

// QueueLen returns the receive-queue depth.
func (pe *PE) QueueLen() int { return len(pe.queue) }

// PendingPackets counts the packets the PE currently owns (receive queue,
// in-progress slot, outbox) — this PE's contribution to the fabric-wide
// packet-conservation check.
func (pe *PE) PendingPackets() int {
	n := len(pe.queue) + len(pe.outbox)
	if pe.current != nil {
		n++
	}
	return n
}

// AckInstance delivers a completion (or loss) acknowledgement for an
// instance this node generated, freeing its flow-control window slot.
// Unknown instance IDs are ignored, so duplicate acknowledgements are safe.
func (pe *PE) AckInstance(inst uint64) {
	for i := range pe.outstanding {
		if pe.outstanding[i].inst == inst {
			last := len(pe.outstanding) - 1
			pe.outstanding[i] = pe.outstanding[last]
			pe.outstanding = pe.outstanding[:last]
			break
		}
	}
	pe.stir()
}

// stir notifies the platform that this PE was stimulated externally.
func (pe *PE) stir() {
	if pe.OnStir != nil {
		pe.OnStir()
	}
}

// Outstanding returns the number of un-acknowledged instances.
func (pe *PE) Outstanding() int { return len(pe.outstanding) }

// releaseAllPackets recycles every packet the PE holds (queue, in-progress
// slot, outbox), truncating the slices in place so their capacity survives
// for the next run. With account set each packet is also reported through
// the drop accounting (fault/reset semantics); without it the packets are
// silently reclaimed (platform reuse — the run they belonged to is over).
func (pe *PE) releaseAllPackets(now sim.Tick, account bool) {
	release := func(p *noc.Packet) {
		if account {
			pe.env.PacketDropped(p, pe.ID, now)
		}
		pe.env.FreePacket(p)
	}
	freed := len(pe.queue) > 0
	for i, p := range pe.queue {
		release(p)
		pe.queue[i] = nil
	}
	pe.queue = pe.queue[:0]
	if freed && pe.admitRefused && pe.OnDequeue != nil {
		pe.admitRefused = false
		pe.OnDequeue()
	}
	if pe.current != nil {
		release(pe.current)
		pe.current = nil
	}
	for i, p := range pe.outbox {
		release(p)
		pe.outbox[i] = nil
	}
	pe.outbox = pe.outbox[:0]
}

// Fail kills the PE: it stops processing and rejects traffic. Queued and
// in-progress packets are lost.
func (pe *PE) Fail(now sim.Tick) {
	if !pe.alive {
		return
	}
	pe.alive = false
	pe.releaseAllPackets(now, true)
	pe.abandonJoins(now)
	pe.env.Directory().SetAlive(pe.ID, false)
}

// Revive returns a dead PE to service mid-run as an idle recruit: it
// rejoins with no task (the intelligence layer re-recruits it through the
// normal stimulus path), re-registers with the directory, and keeps its
// cumulative Stats — the run continues, unlike Restart which begins a new
// one. Packets and joins were already released and accounted at Fail time,
// but any still-outstanding instances it originated died with it: their
// generation slots clear so a reborn source starts a fresh window.
// Reviving a live PE is a no-op.
func (pe *PE) Revive(now sim.Tick) {
	if pe.alive {
		return
	}
	pe.alive = true
	pe.clockEn = true
	pe.freqDiv = 1
	pe.busyEnd = 0
	pe.admitRefused = false
	pe.task = taskgraph.None
	pe.outstanding = pe.outstanding[:0]
	pe.env.Directory().Set(pe.ID, taskgraph.None)
	pe.env.Directory().SetAlive(pe.ID, true)
	pe.stir()
}

// Reset is the RCAP node-reset knob: state clears but the PE stays alive.
func (pe *PE) Reset(now sim.Tick) {
	defer pe.stir()
	pe.releaseAllPackets(now, true)
	pe.busyEnd = 0
	pe.abandonJoins(now)
}

// Restart rewinds the PE to the state NewPE would construct for the given
// task and generation phase, retaining every allocation (queue, outbox and
// scratch capacity, join and window maps). Held packets are recycled without
// drop accounting: a restart ends the run they belonged to. It is the
// platform-reuse path (Platform.Reset), not an RCAP knob.
func (pe *PE) Restart(task taskgraph.TaskID, genPhase sim.Tick) {
	pe.releaseAllPackets(0, false)
	pe.task = task
	pe.alive = true
	pe.clockEn = true
	pe.freqDiv = 1
	pe.busyEnd = 0
	pe.nextGen = genPhase
	pe.resetJoins()
	pe.outstanding = pe.outstanding[:0]
	pe.admitRefused = false
	pe.nextJoin = 0
	pe.workCount = 0
	pe.Stats = Stats{}
}

// SetClockEnable is the RCAP clock-gate knob.
func (pe *PE) SetClockEnable(en bool) {
	pe.clockEn = en
	pe.stir()
}

// SetFrequencyDivider is the RCAP frequency-scaling knob: processing
// latencies multiply by div (1 = full speed).
func (pe *PE) SetFrequencyDivider(div int) {
	if div < 1 {
		div = 1
	}
	pe.freqDiv = div
}

// SwitchTask applies the AIM's task knob. Incomplete joins of the old task
// are abandoned; queued packets for the old task will retarget on pop.
func (pe *PE) SwitchTask(to taskgraph.TaskID, now sim.Tick) {
	if !pe.alive || to == pe.task || to == taskgraph.None {
		return
	}
	pe.stir()
	from := pe.task
	pe.task = to
	if pe.current != nil {
		pe.Stats.Dropped++
		pe.env.PacketDropped(pe.current, pe.ID, now)
		pe.env.InstanceLost(pe.current.Instance, pe.current.Origin, pe.ID, now)
		pe.env.FreePacket(pe.current)
		pe.current = nil
	}
	pe.busyEnd = 0
	pe.abandonJoins(now)
	pe.Stats.Switches++
	pe.env.Directory().Set(pe.ID, to)
	// A fresh source starts generating one period from now, not instantly.
	if t := pe.env.Graph().Task(to); t != nil && t.GenPeriod > 0 {
		pe.nextGen = now + sim.Tick(t.GenPeriod)
	}
	if pe.OnSwitch != nil {
		pe.OnSwitch(from, to, now)
	}
}

// Accept implements noc.Sink: the router's internal port delivers here.
func (pe *PE) Accept(p *noc.Packet, now sim.Tick) bool {
	if !pe.alive {
		return false
	}
	if p.Kind == noc.Debug {
		pe.Stats.DebugSeen++
		pe.env.FreePacket(p) // consumed on the spot
		return true
	}
	if len(pe.queue) >= pe.par.QueueCap {
		pe.admitRefused = true
		return false
	}
	pe.queue = append(pe.queue, p)
	pe.stir()
	return true
}

// Tick advances the PE by one cycle.
func (pe *PE) Tick(now sim.Tick) {
	if !pe.alive || !pe.clockEn {
		return
	}
	pe.drainOutbox(now)
	pe.generate(now)
	pe.process(now)
	if pe.par.JoinTimeout > 0 && now >= pe.nextJoin {
		pe.gcJoins(now)
		// Phase-aligned to multiples of the sweep step rather than to now:
		// when ticked every cycle both forms are identical (now lands exactly
		// on the boundary), but a PE woken late from a park must rejoin the
		// same GC schedule the dense scan would have kept.
		step := pe.par.JoinTimeout / 4
		if step < 1 {
			step = 1
		}
		pe.nextJoin = now - now%step + step
	}
}

// NextWake reports whether the PE may be parked after its Tick at now —
// meaning every subsequent Tick is a no-op until either an external stimulus
// (OnStir) arrives or the returned wake tick is reached. hasWake is false
// when only a stimulus can make the next Tick meaningful (dead or clock-gated
// node, flow-control window blocked with no reclaim timeout). parkable is
// false while the PE must be ticked every cycle (queued input, back-pressured
// outbox).
func (pe *PE) NextWake(now sim.Tick) (wake sim.Tick, hasWake, parkable bool) {
	if !pe.alive || !pe.clockEn {
		return 0, false, true
	}
	if len(pe.outbox) > 0 || len(pe.queue) > 0 {
		return 0, false, false
	}
	closer := func(t sim.Tick) {
		if !hasWake || t < wake {
			wake, hasWake = t, true
		}
	}
	if pe.current != nil {
		closer(pe.busyEnd)
	}
	if t := pe.env.Graph().Task(pe.task); t != nil && t.GenPeriod > 0 {
		if now < pe.nextGen {
			closer(pe.nextGen)
		} else if pe.par.InstanceTimeout > 0 {
			// Generation is window-blocked (a post-Tick nextGen in the past
			// means generate ran and found the window full): the next
			// self-driven change is the earliest outstanding-instance
			// reclaim. An acknowledgement arriving sooner stirs the PE.
			for _, o := range pe.outstanding {
				closer(o.born + pe.par.InstanceTimeout + 1)
			}
		}
	}
	if len(pe.joins) > 0 && pe.par.JoinTimeout > 0 {
		closer(pe.nextJoin)
	}
	return wake, hasWake, true
}

// drainOutbox injects pending packets; send back-pressure stalls the PE.
// Sent entries are compacted out in place so the slice's capacity is reused
// across emissions instead of sliding toward a reallocation.
func (pe *PE) drainOutbox(now sim.Tick) {
	sent := 0
	for ; sent < len(pe.outbox); sent++ {
		if !pe.env.Inject(pe.ID, pe.outbox[sent], now) {
			pe.Stats.StallTicks++
			break
		}
	}
	if sent == 0 {
		return
	}
	n := copy(pe.outbox, pe.outbox[sent:])
	clear(pe.outbox[n:])
	pe.outbox = pe.outbox[:n]
}

// generate emits new work items when the PE runs a source task.
func (pe *PE) generate(now sim.Tick) {
	t := pe.env.Graph().Task(pe.task)
	if t == nil || t.GenPeriod == 0 || now < pe.nextGen || len(pe.outbox) > 0 {
		return
	}
	if pe.par.Window > 0 {
		// Reclaim slots of instances whose acknowledgement never arrived.
		if pe.par.InstanceTimeout > 0 {
			kept := pe.outstanding[:0]
			for _, o := range pe.outstanding {
				if now-o.born <= pe.par.InstanceTimeout {
					kept = append(kept, o)
				}
			}
			pe.outstanding = kept
		}
		if len(pe.outstanding) >= pe.par.Window {
			// Flow control: downstream has not kept up; do not flood the
			// fabric. Generation resumes as soon as a slot frees.
			return
		}
	}
	g := pe.env.Graph()
	dir := pe.env.Directory()

	inst := pe.env.NextInstanceID()
	// Bind the join destination at fork time so all branches converge
	// (DESIGN.md §5). Only single-sink graphs with a real join need it.
	joinDst := noc.Invalid
	if sinks := g.Sinks(); len(sinks) == 1 && g.JoinWidth(sinks[0]) > 1 {
		// Joins concentrate on the nearest sink (no load spread): surplus
		// sinks must go genuinely idle so the intelligence can recruit them
		// for starved tasks (DESIGN.md §5).
		if jd, ok := dir.Nearest(sinks[0], pe.ID); ok {
			joinDst = jd
		} else {
			// No sink owner exists: the work item could never complete.
			pe.nextGen = now + sim.Tick(t.GenPeriod)
			pe.env.InstanceLost(inst, pe.ID, pe.ID, now)
			return
		}
	}

	branch := 0
	emitted := false
	for _, e := range g.Successors(pe.task) {
		owners := pickTargets(dir, e.To, pe.ID, e.Width, inst, pe.targetBuf)
		if owners != nil {
			pe.targetBuf = owners // keep the grown scratch for reuse
		}
		if len(owners) == 0 {
			// Nobody runs the consumer task: this edge's packets are lost.
			continue
		}
		for i := 0; i < e.Width; i++ {
			dst := owners[i%len(owners)]
			pkt := pe.env.NewPacket()
			pkt.Kind = noc.Data
			pkt.Src = pe.ID
			pkt.Dst = dst
			pkt.Task = e.To
			pkt.Instance = inst
			pkt.Branch = branch
			pkt.Origin = pe.ID
			pkt.JoinDst = joinDst
			pkt.Flits = pe.par.PacketFlits
			pkt.Created = now
			if pe.par.DeadlineTicks > 0 {
				pkt.Deadline = now + pe.par.DeadlineTicks
			}
			pe.outbox = append(pe.outbox, pkt)
			branch++
			emitted = true
		}
	}
	pe.nextGen = now + sim.Tick(t.GenPeriod)
	if !emitted {
		pe.env.InstanceLost(inst, pe.ID, pe.ID, now)
		return
	}
	if pe.par.Window > 0 {
		pe.outstanding = append(pe.outstanding, outstandingInst{inst: inst, born: now})
	}
	pe.Stats.Generated++
	pe.workCount++
	if pe.OnGenerate != nil {
		pe.OnGenerate(now)
	}
	pe.drainOutbox(now)
}

// process advances the execution of received packets.
func (pe *PE) process(now sim.Tick) {
	// Finish the in-flight packet.
	if pe.current != nil {
		if now < pe.busyEnd {
			return
		}
		done := pe.current
		pe.current = nil
		pe.finish(done, now)
		pe.env.FreePacket(done)
	}
	// Start the next one. Send back-pressure gates new work so the outbox
	// stays bounded.
	if len(pe.outbox) > 0 || len(pe.queue) == 0 {
		return
	}
	p := pe.queue[0]
	n := copy(pe.queue, pe.queue[1:])
	pe.queue[n] = nil
	pe.queue = pe.queue[:n]
	if pe.admitRefused && pe.OnDequeue != nil {
		pe.admitRefused = false
		pe.OnDequeue()
	}

	if p.Task != pe.task {
		pe.retarget(p, now)
		return
	}
	t := pe.env.Graph().Task(pe.task)
	proc := sim.Tick(t.ProcTicks * pe.freqDiv)
	if proc <= 0 {
		pe.finish(p, now)
		pe.env.FreePacket(p)
		return
	}
	pe.current = p
	pe.busyEnd = now + proc
}

// finish completes the processing of packet p at the current task.
func (pe *PE) finish(p *noc.Packet, now sim.Tick) {
	pe.Stats.Processed++
	pe.workCount++
	g := pe.env.Graph()
	if g.IsSink(pe.task) {
		pe.finishJoin(p, now)
		return
	}
	// Intermediate task: forward one packet per successor edge unit.
	dir := pe.env.Directory()
	for _, e := range g.Successors(pe.task) {
		for i := 0; i < e.Width; i++ {
			dst := noc.Invalid
			if g.IsSink(e.To) && p.JoinDst != noc.Invalid {
				// Honour the fork-time join binding when still valid.
				if dir.Alive(p.JoinDst) && dir.TaskOf(p.JoinDst) == e.To {
					dst = p.JoinDst
				} else if nd, ok := dir.Nearest(e.To, p.JoinDst); ok {
					// Deterministic re-bind anchored at the original join
					// node so sibling branches re-converge.
					dst = nd
				}
			} else if nd := pickTargets(dir, e.To, pe.ID, 1, p.Instance, pe.targetBuf); len(nd) == 1 {
				dst = nd[0]
				pe.targetBuf = nd
			}
			if dst == noc.Invalid {
				// No owner for the consumer task: the would-be output packet
				// is never created and the instance cannot complete.
				pe.Stats.Dropped++
				pe.env.InstanceLost(p.Instance, p.Origin, pe.ID, now)
				continue
			}
			out := pe.env.NewPacket()
			out.Kind = noc.Data
			out.Src = pe.ID
			out.Dst = dst
			out.Task = e.To
			out.Instance = p.Instance
			out.Branch = p.Branch
			out.Origin = p.Origin
			out.JoinDst = dst
			out.Flits = pe.par.PacketFlits
			out.Created = now
			if pe.par.DeadlineTicks > 0 {
				out.Deadline = now + pe.par.DeadlineTicks
			}
			pe.outbox = append(pe.outbox, out)
		}
	}
	pe.drainOutbox(now)
}

// finishJoin records a processed branch at a sink task and reports instance
// completion once all branches arrived.
func (pe *PE) finishJoin(p *noc.Packet, now sim.Tick) {
	width := pe.env.Graph().JoinWidth(pe.task)
	if width <= 1 {
		pe.Stats.Completions++
		pe.env.InstanceCompleted(p.Instance, p.Origin, pe.ID, now)
		return
	}
	js, ok := pe.joins[p.Instance]
	if !ok {
		js = joinState{origin: p.Origin}
	}
	js.seen++
	js.lastTouch = now
	if js.seen >= width {
		delete(pe.joins, p.Instance)
		pe.Stats.Completions++
		pe.env.InstanceCompleted(p.Instance, p.Origin, pe.ID, now)
		return
	}
	pe.joins[p.Instance] = js
	pe.joinsPeak = max(pe.joinsPeak, len(pe.joins))
}

// joinMapGroup is the number of entries a Go map keeps in the single
// 8-slot group it starts with; past that it grows tables it never gives
// back, and only then is replacing the map worth an allocation.
const joinMapGroup = 8

// resetJoins empties the join map for a new run or a restore. A Go map
// never shrinks, so a map whose backlog once outgrew one slot group is
// replaced rather than cleared: otherwise a pooled platform's join maps
// would stay sized to the largest backlog any earlier run left there.
func (pe *PE) resetJoins() {
	if pe.joinsPeak > joinMapGroup {
		pe.joins = make(map[uint64]joinState)
	} else {
		clear(pe.joins)
	}
	pe.joinsPeak = 0
}

// retarget re-addresses a packet that arrived for a task this node no
// longer runs, then re-injects it.
func (pe *PE) retarget(p *noc.Packet, now sim.Tick) {
	pe.Stats.Misrouted++
	dir := pe.env.Directory()
	anchor := pe.ID
	if p.JoinDst != noc.Invalid && pe.env.Graph().IsSink(p.Task) {
		anchor = p.JoinDst
	}
	dst, ok := dir.Nearest(p.Task, anchor)
	if !ok || dst == pe.ID {
		pe.Stats.Dropped++
		pe.env.PacketDropped(p, pe.ID, now)
		pe.env.InstanceLost(p.Instance, p.Origin, pe.ID, now)
		pe.env.FreePacket(p)
		return
	}
	p.Dst = dst
	if pe.env.Graph().IsSink(p.Task) {
		p.JoinDst = dst
	}
	p.Retargets++
	pe.outbox = append(pe.outbox, p)
	pe.drainOutbox(now)
}

// gcJoins abandons join instances that stopped receiving branches (lost to
// drops, faults or task switches elsewhere).
func (pe *PE) gcJoins(now sim.Tick) {
	for inst, js := range pe.joins {
		if now-js.lastTouch > pe.par.JoinTimeout {
			delete(pe.joins, inst)
			pe.env.InstanceLost(inst, js.origin, pe.ID, now)
		}
	}
}

// abandonJoins drops all in-flight joins (task switch, reset or failure).
func (pe *PE) abandonJoins(now sim.Tick) {
	for inst, js := range pe.joins {
		pe.env.InstanceLost(inst, js.origin, pe.ID, now)
		delete(pe.joins, inst)
	}
}

package noc

import (
	"fmt"
	"math/bits"

	"centurion/internal/sim"
)

// DropReason classifies why the fabric dropped a packet.
type DropReason int

const (
	// DropUnreachable: no alive path to the destination.
	DropUnreachable DropReason = iota
	// DropRecoveryFailed: deadlock recovery ejected the packet and no
	// handler rescued it.
	DropRecoveryFailed
	// DropRouterFailed: the packet was buffered in a router that failed.
	DropRouterFailed
	// DropNoSink: delivered to a node with no processing element attached.
	DropNoSink
	// DropByzantine: a byzantine router silently discarded the packet.
	DropByzantine
)

// String names the drop reason.
func (d DropReason) String() string {
	switch d {
	case DropUnreachable:
		return "unreachable"
	case DropRecoveryFailed:
		return "recovery-failed"
	case DropRouterFailed:
		return "router-failed"
	case DropNoSink:
		return "no-sink"
	case DropByzantine:
		return "byzantine"
	}
	return "unknown"
}

// Params sets the fabric parameters.
type Params struct {
	// BufferFlits is the flit capacity of each router input channel.
	BufferFlits int
	// DeadlockLimit is how long a head packet may block before the recovery
	// mechanism acts on it (0 disables recovery).
	DeadlockLimit sim.Tick
	// RequeueLimit is how many consecutive recovery rotations a packet gets
	// before it is ejected from the router entirely.
	RequeueLimit int
	// Mode selects the routing strategy (default RouteAuto).
	Mode RoutingMode
}

// DefaultConfig returns Params mirroring the Centurion router: small wormhole buffers and a
// aggressive 2 ms recovery rotation that doubles as head-of-line relief.
func DefaultConfig() Params {
	return Params{
		BufferFlits:   8,
		DeadlockLimit: sim.Ms(2),
		RequeueLimit:  64,
		Mode:          RouteAuto,
	}
}

// NetworkStats are fabric-wide counters used for packet-conservation checks.
type NetworkStats struct {
	Injected  uint64
	Delivered uint64
	ConfigOps uint64
	Dropped   uint64
	Rescued   uint64 // recovery-path packets re-admitted by the handler
	// Byzantine misbehaviour tallies (zero on a healthy fabric): forwards
	// deliberately sent to a wrong neighbour, packets silently discarded,
	// and packets forwarded while a copy was retained for replay.
	ByzMisrouted  uint64
	ByzDropped    uint64
	ByzDuplicated uint64
}

// routerState is one router's per-tick hot state: everything the fused
// network kernel reads or writes while servicing the router, packed into a
// single ~200-byte record (just over three cache lines, naturally aligned in
// the state slice) so one router's tick stays within a handful of lines
// instead of chasing a *Router heap object. The records live in Network.state, a
// flat slice indexed by router NodeID — together with the shared ring-slot
// slice this is the data-oriented core of DESIGN.md §11.
type routerState struct {
	// quiet is a pure fast-forward: when the last scan found every occupied
	// port waiting on an in-transit head (wormhole tail flit not yet
	// arrived) and serviced nothing, it records the earliest head arrival;
	// scans before that tick would observably do nothing except advance the
	// round-robin pointer, so tickRouter does exactly that and returns. Any
	// push resets it — a new packet may be ready sooner.
	quiet sim.Tick
	// hop is this router's row of the fault-aware route tables, one byte
	// per destination (-1 encodes PortInvalid), or nil while the fabric
	// routes dimension-order — then the hop is computed from coordinates
	// (Network.hop). It is a read-only view into routeTables.next, rebound
	// whenever the routing state changes (Network.bindRows).
	hop []int8
	// queued is the packet count across all input rings, maintained on
	// every push/pop so the idle check and the active-router set are O(1).
	queued int32
	// occ mirrors it per port (bit p set = port p non-empty) so the scan
	// services only occupied ports; rr is the round-robin start of the next
	// scan; disabled has bit p set when port p is administratively down.
	occ      uint8
	rr       uint8
	disabled uint8
	faulty   bool
	// nbr is the neighbouring router's ID out of each cardinal port
	// (-1 = no link; 32 bits so mega fabrics reach 2^20 nodes).
	nbr [NumPorts]int32
	// refused has bit p set when a push into ring p was refused for
	// capacity since its last pop — the precise condition under which the
	// upstream router may have parked on this ring and a pop must stir it.
	refused uint8
	// linkDown has bit p set while the fault engine holds the link out of
	// port p unhealthy: transfers out of p and admissions into p are refused
	// exactly as if the port were administratively disabled. The bit lives
	// in what was the record's padding byte, so fault-health tracking costs
	// the hot path no cache footprint.
	linkDown uint8
	// x, y are the router's grid coordinate, the from side of the
	// dimension-order hop. They fill what was padding, so the record stays
	// 208 bytes.
	x, y uint16
	// rings are the per-port input FIFOs over the network's shared slot
	// slice; linkBusy is the tick until which each output link is
	// serialising a transfer; blockedAt is when each port's head packet
	// first blocked (0 = not blocked).
	rings     [NumPorts]ring
	linkBusy  [NumPorts]sim.Tick
	blockedAt [NumPorts]sim.Tick
}

// Network is the fabric: topology, routers, links and routing state.
//
// Since the data-oriented core (DESIGN.md §11) the per-tick state of every
// router lives here — flat routerState records indexed by router ID plus
// one shared ring-slot slice — and Tick is a fused kernel sweeping the
// active set over those arrays. The *Router values remain as identity +
// cold state (stats, monitor taps, sinks, recovery settings); they carry no
// buffered traffic of their own.
type Network struct {
	Topo  Topology
	cfg   Params
	nodes int
	// routers maps every NodeID to the router serving it. On concentrated
	// topologies cluster members share one *Router, so the slice holds
	// duplicates; uniq lists each router exactly once (ascending IDs) for
	// whole-fabric iteration.
	routers []*Router
	uniq    []*Router

	// active tracks routers with queued packets. A router enrolls on any
	// ring push and retires once drained, so Tick sweeps only the part of
	// the fabric actually carrying traffic instead of every router.
	active *sim.ActiveSet

	// pool is the packet arena every handle in the rings resolves against.
	// The platform shares it (Env.NewPacket draws from it), so fabric and
	// processing elements recycle through one set of books.
	pool PacketPool

	// state holds the per-router hot records (indexed by router NodeID;
	// entries whose node is served by another router stay unused), and
	// slots is the shared ring backing: ring r*NumPorts+p owns slots
	// [(r*NumPorts+p)*spp, +spp).
	state    []routerState
	slots    []ringSlot
	spp      int
	sppMask  uint32
	capFlits uint32

	tables *routeTables
	// healthy caches the fault-free route tables so Reset can restore them
	// without recomputation (they are immutable once built).
	healthy    *routeTables
	haveFaults bool
	faultyCnt  int

	// The topology's dimension-order hop, split by axis (see hop):
	// colHop[fx*gridW+dx] is the X decision between grid columns and
	// rowHop[fy*gridH+dy] the Y decision between grid rows, both narrowed
	// like the hop rows; at[id] is node id's grid coordinate. Together they
	// are O(width² + height² + nodes) bytes, so no fabric carries an
	// O(nodes²) XY table.
	colHop, rowHop []int8
	gridW, gridH   int
	at             []gridXY

	// huge marks a fabric beyond hugeNodes: the O(nodes²) fault-aware route
	// tables are never built, so routes stay dimension-order even under
	// faults (blocked heads take the deadlock-recovery path, like the
	// FPGA's router).
	huge bool

	// DropHandler observes every dropped packet (may be nil). The handler is
	// the packet's last reader: the fabric recycles it into the pool right
	// after.
	DropHandler func(at NodeID, p *Packet, reason DropReason)
	// RecoveryHandler may rescue a packet ejected by deadlock recovery or
	// unreachable-destination handling, e.g. by retargeting and re-injecting
	// it. Return true when the packet was taken over. May be nil.
	RecoveryHandler func(at NodeID, p *Packet, now sim.Tick) bool

	// drainBuf is reusable scratch for draining a failed router's rings.
	drainBuf []*Packet

	// byz holds per-router byzantine arming (allocated on first use, so a
	// fabric that never sees a byzantine profile carries one nil slice);
	// byzAny gates the whole byzantine path with a single bool load so the
	// fault-free forward path is unchanged.
	byz    []byzState
	byzCnt int
	byzAny bool

	stats NetworkStats
}

// Byzantine behaviour bits for SetByzantine / fault schedules.
const (
	// ByzMisroute forwards the packet to a wrong (but locally valid)
	// neighbour instead of the routed next hop.
	ByzMisroute uint8 = 1 << iota
	// ByzDrop silently discards the packet.
	ByzDrop
	// ByzDup forwards the packet but retains a copy for replay.
	ByzDup
)

// byzState is one router's byzantine arming: a per-forward interference
// threshold out of 2^32, the armed behaviour bits, and a private seeded RNG
// so interference draws are deterministic and independent of every other
// random stream in the system.
type byzState struct {
	rate  uint32
	modes uint8
	rng   sim.RNG
}

// NewNetwork builds the fabric the topology describes with the given
// configuration.
func NewNetwork(topo Topology, cfg Params) *Network {
	if cfg.BufferFlits <= 0 {
		cfg.BufferFlits = DefaultConfig().BufferFlits
	}
	nodes := topo.Nodes()
	if nodes > 1<<20 {
		// Ring slots and neighbour links store node IDs in 32 bits; the cap
		// bounds the slot backing (~1.3 GiB at 2^20 nodes) rather than the
		// encoding. 1<<20 admits exactly the 1024×1024 mega fabric.
		panic("noc: topology exceeds the 1,048,576-node limit of the fabric layout")
	}
	n := &Network{Topo: topo, cfg: cfg, nodes: nodes, active: sim.NewActiveSet(nodes)}
	n.huge = nodes > hugeNodes
	n.routers = make([]*Router, nodes)
	for id := 0; id < nodes; id++ {
		rid := topo.RouterOf(NodeID(id))
		if n.routers[rid] == nil {
			r := newRouter(rid, n, cfg.DeadlockLimit, cfg.RequeueLimit)
			n.routers[rid] = r
			n.uniq = append(n.uniq, r)
		}
		n.routers[id] = n.routers[rid]
	}

	n.spp = slotsPerPort(cfg.BufferFlits)
	n.sppMask = uint32(n.spp - 1)
	n.capFlits = uint32(cfg.BufferFlits)
	n.buildXY()
	n.state = make([]routerState, nodes)
	n.slots = make([]ringSlot, nodes*int(NumPorts)*n.spp)
	for id := range n.state {
		st := &n.state[id]
		st.x, st.y = n.at[id].x, n.at[id].y
		for p := range st.nbr {
			st.nbr[p] = -1
		}
		for p := 0; p < int(NumPorts); p++ {
			st.rings[p].head = uint32((id*int(NumPorts) + p) * n.spp)
		}
	}
	// Wire the fabric links between routers.
	for _, r := range n.uniq {
		for p := North; p <= West; p++ {
			if nb, ok := topo.Neighbor(r.ID, p); ok {
				n.state[r.ID].nbr[p] = int32(topo.RouterOf(nb))
			}
		}
	}
	if cfg.Mode == RouteTables && !n.huge {
		n.RecomputeRoutes()
	} else {
		n.applyRoutingRows()
	}
	return n
}

// hugeNodes is the node count beyond which the fault-aware route tables
// are never built: a 65536-node fabric's tables alone would be 4 GiB.
// 64×64 (4096 nodes) keeps full fault-aware routing.
const hugeNodes = 8192

// maxGridSide bounds each grid dimension: coordinates narrow to 16 bits in
// the router record, and the per-axis hop tables are side² bytes.
const maxGridSide = 8192

// gridXY is a node's grid coordinate narrowed to 16 bits per axis.
type gridXY struct{ x, y uint16 }

// buildXY precomputes the per-axis hop tables and node coordinates hop
// reads. Dimension-order routing is separable on every topology here: the
// X decision depends only on the source and destination columns, and once X
// is settled (Local) the Y decision depends only on the rows — so one probe
// of BaseNextHop per column pair along row 0, and per row pair along
// column 0, reproduces the hop for every (router, destination) pair.
func (n *Network) buildXY() {
	topo := n.Topo
	w, h := topo.Width(), topo.Height()
	if w > maxGridSide || h > maxGridSide {
		panic(fmt.Sprintf("noc: %dx%d grid exceeds the %d-node side limit of the fabric layout", w, h, maxGridSide))
	}
	n.gridW, n.gridH = w, h
	n.colHop = make([]int8, w*w)
	for fx := 0; fx < w; fx++ {
		from := topo.ID(Coord{X: fx})
		for dx := 0; dx < w; dx++ {
			n.colHop[fx*w+dx] = int8(topo.BaseNextHop(from, topo.ID(Coord{X: dx})))
		}
	}
	n.rowHop = make([]int8, h*h)
	for fy := 0; fy < h; fy++ {
		from := topo.ID(Coord{Y: fy})
		for dy := 0; dy < h; dy++ {
			n.rowHop[fy*h+dy] = int8(topo.BaseNextHop(from, topo.ID(Coord{Y: dy})))
		}
	}
	n.at = make([]gridXY, n.nodes)
	for id := range n.at {
		c := topo.Coord(NodeID(id))
		n.at[id] = gridXY{x: uint16(c.X), y: uint16(c.Y)}
	}
}

// hop is the output port at the router whose record is st toward dst, the
// one forwarding decision servicePort, NextHop and huge mode share: an
// indexed load from the bound fault-aware row, or — while the fabric routes
// dimension-order and no row is bound — the topology's hop computed from
// coordinates, as the FPGA router computes it in logic (the X decision,
// then the Y decision once X is settled). Out-of-range destinations are
// PortInvalid.
func (n *Network) hop(st *routerState, dst int32) Port {
	if uint32(dst) >= uint32(n.nodes) {
		return PortInvalid
	}
	if st.hop != nil {
		return Port(st.hop[dst])
	}
	d := n.at[dst]
	if p := n.colHop[int(st.x)*n.gridW+int(d.x)]; p != int8(Local) {
		return Port(p)
	}
	return Port(n.rowHop[int(st.y)*n.gridH+int(d.y)])
}

// Pool returns the fabric's packet arena. Every packet that enters the
// fabric is (or becomes) registered here; platforms draw their packets from
// it so the whole system shares one recycler.
func (n *Network) Pool() *PacketPool { return &n.pool }

// bindRows points every router's hop row at the table the current routing
// state selects: nil (dimension-order hops from coordinates) on a healthy
// fabric, under RouteXY and on huge fabrics, and the router's row of the
// fault-aware tables otherwise. Rows are views, so binding copies nothing.
func (n *Network) bindRows() {
	useXY := n.huge || n.cfg.Mode == RouteXY || (n.cfg.Mode == RouteAuto && !n.haveFaults)
	for _, r := range n.uniq {
		var row []int8
		if !useXY {
			row = n.tables.next[r.ID]
		}
		n.state[r.ID].hop = row
	}
}

// applyRoutingRows rebinds the hop rows after a routing-state change and
// wakes every router holding traffic: new rows can change any parked
// head's fate (fresh detour, newly unreachable destination).
func (n *Network) applyRoutingRows() {
	n.bindRows()
	n.stirAll()
}

// Router returns the router serving the given node (shared by the whole
// cluster on concentrated topologies).
func (n *Network) Router(id NodeID) *Router { return n.routers[id] }

// Routers returns the router slice indexed by NodeID. On concentrated
// topologies cluster members alias one router. Callers must not mutate it.
func (n *Network) Routers() []*Router { return n.routers }

// UniqueRouters returns each physical router exactly once, in ascending ID
// order. Callers must not mutate the slice.
func (n *Network) UniqueRouters() []*Router { return n.uniq }

// Stats returns the fabric-wide counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// Tick advances the fabric by one cycle. It is the fused network kernel:
// one pass over the active set, servicing each enrolled router's occupied
// ports directly against the flat state records, in ascending node-ID order
// — the same order as the dense full scan — so results are bit-identical to
// TickDense (a router with no queued packets is a no-op tick either way;
// its round-robin pointer only advances while traffic is buffered).
func (n *Network) Tick(now sim.Tick) {
	n.active.Sweep(func(id int) bool {
		st := &n.state[id]
		n.tickRouter(id, st, now)
		return st.queued > 0 && !st.faulty
	})
}

// TickDense advances every router by one cycle, active or not — the
// pre-active-set reference scan kept for the stepping-equivalence tests.
func (n *Network) TickDense(now sim.Tick) {
	for _, r := range n.uniq {
		n.tickRouter(int(r.ID), &n.state[r.ID], now)
	}
}

// tickRouter advances one router by one cycle.
//
// Service discipline: each tick the router scans its input ports starting
// from a rotating offset (round-robin fairness) and tries to advance each
// head packet one hop. An output link stays busy for the packet's flit count
// once a transfer starts, which serialises long packets exactly like a
// wormhole channel. A head packet blocked for longer than the deadlock limit
// is ejected through the recovery path — the paper's "basic deadlock
// recovery mechanism".
func (n *Network) tickRouter(id int, st *routerState, now sim.Tick) {
	// Fast path: idle routers do nothing, which keeps 100-run sweeps cheap.
	// (The active-set sweep normally skips them before this check; direct
	// callers get the same answer from the O(1) counter.)
	if st.faulty || st.queued == 0 {
		return
	}

	start := int(st.rr)
	if start+1 >= int(NumPorts) {
		st.rr = 0
	} else {
		st.rr = uint8(start + 1)
	}
	// All heads in transit and nothing to service: the full scan would be a
	// no-op (the pointer advance above is all the dense scan would mutate).
	if now < st.quiet {
		return
	}
	// quiet collects the earliest tick any occupied port could observably
	// act — an in-transit head's arrival, a busy link freeing, a deadlock
	// recovery or deadline lapse falling due. It survives to st.quiet only
	// when no port was serviced (a serviced port's state may unblock a
	// neighbour this very tick, so any activity forces a rescan next tick).
	// Unblock causes that are not time-predictable (a neighbour ring or
	// local sink freeing space, a task switch changing absorption, routes
	// or ports reconfigured) wake the router through stirs instead — see
	// Stir and its call sites.
	quiet := tickNever
	allQuiet := true
	// Visit occupied ports in round-robin order by iterating set bits of the
	// occupancy mask rotated so bit order equals rotation order from start.
	// The mask is re-derived from the live occ after every service — a port
	// can become occupied mid-scan (a rescued packet re-injected locally),
	// and the cursor makes it serviced this tick exactly when its rotation
	// position is still ahead, just as testing each port in turn would.
	for cursor := 0; cursor < int(NumPorts); {
		rot := uint(occRot[start][st.occ])
		rot &= ^uint(0) << cursor
		if rot == 0 {
			break
		}
		b := bits.TrailingZeros(rot)
		cursor = b + 1
		port := Port(b + start)
		if port >= NumPorts {
			port -= NumPorts
		}
		if at, ok := n.servicePort(id, st, port, now); ok {
			if at < quiet {
				quiet = at
			}
		} else {
			allQuiet = false
		}
	}
	if allQuiet {
		st.quiet = quiet
	}
}

// tickNever parks a port (and its router) until a stir: no time-driven
// event will change what its scan observes.
const tickNever = sim.Tick(1) << 62

// occRot[start][occ] is the 5-bit occupancy mask occ rotated right by start,
// so bit order equals round-robin rotation order — a table lookup instead of
// a double shift per scan step.
var occRot = func() (t [NumPorts][1 << NumPorts]uint8) {
	for start := 0; start < int(NumPorts); start++ {
		for occ := 0; occ < 1<<NumPorts; occ++ {
			t[start][occ] = uint8((occ>>start | occ<<(int(NumPorts)-start)) & (1<<NumPorts - 1))
		}
	}
	return
}()

// headSlot returns the slot of the oldest entry of one port's ring.
func (n *Network) headSlot(st *routerState, port Port) *ringSlot {
	return &n.slots[st.rings[port].head]
}

// servicePort advances one input port. It reports (arrival, true) when the
// port provably cannot act before arrival — its head packet's tail flit is
// still in transit — and (0, false) whenever it did or might have done
// observable work this tick.
func (n *Network) servicePort(id int, st *routerState, port Port, now sim.Tick) (sim.Tick, bool) {
	rm := &st.rings[port]
	if rm.n == 0 {
		return 0, false
	}
	s := &n.slots[rm.head]
	if s.ready > now {
		return s.ready, true
	}
	r := n.routers[id]
	if s.kind == Data && s.deadline != 0 && s.flags&slotLapsed == 0 && now > s.deadline {
		// The lapse latch fires at most once per packet lifetime; write it
		// through to the packet so the mirror survives delivery and rescue.
		s.flags |= slotLapsed
		n.pool.Deref(s.id).lapsedSeen = true
		r.Stats.LapsesSeen++
		if r.Monitors.DeadlineLapse != nil {
			r.Monitors.DeadlineLapse(taskID(s.task), now)
		}
	}

	// The next hop decides the packet's fate: Local means "this router
	// serves the destination" — the destination node itself, or a cluster
	// member on concentrated topologies — and delivers through the sink.
	out := n.hop(st, s.dst)
	if out == Local {
		return n.deliverLocal(id, st, port, s, now)
	}

	// Task-addressed absorption: an en-route owner of the packet's task may
	// sink it locally instead of forwarding. The absorber sees the handle
	// and task (enough to turn down a mismatched packet without touching
	// it); Absorb transfers ownership on true. The packet's exit state is
	// written back before the call — an absorber that derefs (or even
	// recycles) the packet synchronously must observe it current, exactly
	// like a sink in deliverLocal; a false return leaves the slot
	// authoritative as before.
	if s.kind == Data && r.Absorb != nil {
		task := taskID(s.task)
		n.pool.Deref(s.id).Hops = int(s.hops)
		if r.Absorb(s.id, task, now) {
			n.popIn(id, st, port)
			r.Stats.Delivered++
			if r.Monitors.InternalDelivery != nil {
				r.Monitors.InternalDelivery(task, now)
			}
			n.stats.Delivered++
			return 0, false
		}
	}

	if out == PortInvalid {
		// Unreachable destination (e.g. partitioned by faults): hand the
		// packet to the recovery path so the platform can retarget it.
		pkt := n.pool.Deref(s.id)
		pkt.Hops = int(s.hops)
		n.popIn(id, st, port)
		n.recoverAt(id, pkt, now)
		return 0, false
	}
	// Byzantine interference sits behind a single bool load so the healthy
	// forward path is untouched; armed routers may misroute, drop or
	// duplicate the head instead of forwarding it honestly.
	if n.byzAny && s.kind == Data {
		if n.byzMeddle(id, st, port, out, s, now) {
			return 0, false
		}
	}
	if n.tryForward(id, st, port, out, s, now) {
		return 0, false
	}
	// Head is blocked: track for deadlock recovery. BlockedTicks counts
	// blocked service visits; parked ticks are provably identical no-ops
	// and are not revisited, so the counter is a lower bound under the
	// activity-tracked core. (This bookkeeping stays inline — mirrored in
	// deliverLocal's sink-blocked tail — because the blocked path is hot
	// under congestion; only the wake computation is shared.)
	r.Stats.BlockedTicks++
	if st.blockedAt[port] == 0 {
		st.blockedAt[port] = now
	} else if r.deadlockLimit > 0 && now-st.blockedAt[port] >= r.deadlockLimit {
		n.recoverBlocked(id, st, port, s, now)
		return 0, false
	}
	return blockedWake(st.blockedAt[port], r.deadlockLimit, s, st.linkBusy[out], now), true
}

// blockedWake is the earliest tick a blocked head could act on its own: its
// output link freeing (linkBusy, 0 for sink-blocked heads), deadlock
// recovery falling due, or a pending deadline lapse — the park bound of the
// forward-blocked and sink-blocked paths. Everything else that could
// unblock the head (neighbour ring or sink space, absorption eligibility,
// routing or port reconfiguration) stirs the router explicitly.
func blockedWake(blockedAt, limit sim.Tick, s *ringSlot, linkBusy, now sim.Tick) sim.Tick {
	wake := tickNever
	if linkBusy > now {
		wake = linkBusy
	}
	if limit > 0 {
		if w := blockedAt + limit; w < wake {
			wake = w
		}
	}
	if s.kind == Data && s.deadline != 0 && s.flags&slotLapsed == 0 {
		if w := s.deadline + 1; w < wake {
			wake = w
		}
	}
	return wake
}

// pushPacket enqueues a packet whose authoritative state lives in the
// arena (injection and recovery-rotation entry points — tryForward is the
// other ring-push site, copying slot to slot in place), building its ring
// slot from the packet fields. Capacity is checked before anything else: a
// back-pressured injection (the common case for a stalled outbox retrying
// every tick) costs one compare, not a slot construction.
func (n *Network) pushPacket(id int, port Port, p *Packet, readyAt sim.Tick) bool {
	st := &n.state[id]
	rm := &st.rings[port]
	flits := p.Flits
	if flits > 1<<15-1 {
		flits = 1<<15 - 1
	}
	f := ringFlits(int16(flits))
	if rm.used+f > n.capFlits {
		st.refused |= 1 << port
		return false
	}
	if int(int16(p.Task)) != int(p.Task) {
		// Tasks narrow to 16 bits in the ring slot: fail loudly rather
		// than alias.
		panic("noc: task ID exceeds the 16-bit ring layout")
	}
	dst := p.Dst
	if int(int32(dst)) != int(dst) {
		// A destination outside the 32-bit range cannot be a real node;
		// map it to Invalid so it takes the unreachable/recovery path
		// instead of aliasing a valid node.
		dst = Invalid
	}
	var flags uint8
	if p.lapsedSeen {
		flags = slotLapsed
	}
	if p.requeues != 0 {
		flags |= slotRequeued
	}
	base := uint32((id*int(NumPorts) + int(port)) * n.spp)
	n.slots[base+((rm.head-base+rm.n)&n.sppMask)] = ringSlot{
		ready:    readyAt,
		deadline: p.Deadline,
		id:       n.pool.handleFor(p),
		dst:      int32(dst),
		task:     int16(p.Task),
		flits:    int16(flits),
		hops:     uint16(p.Hops),
		kind:     p.Kind,
		flags:    flags,
	}
	rm.n++
	rm.used += f
	st.queued++
	st.occ |= 1 << port
	st.quiet = 0
	n.active.Add(id)
	return true
}

// popIn dequeues the head of an input ring, maintaining the counters. All
// ring pops go through here. Removing a head always clears the port's
// blocked-since timestamp: whatever happens to the packet next (forward,
// deliver, recover, drop), the successor head starts a fresh deadlock
// countdown.
func (n *Network) popIn(id int, st *routerState, port Port) {
	rm := &st.rings[port]
	s := &n.slots[rm.head]
	rm.used -= ringFlits(s.flits)
	s.id = 0 // a stale read past this point must fail loudly
	base := uint32((id*int(NumPorts) + int(port)) * n.spp)
	rm.head = base + ((rm.head - base + 1) & n.sppMask)
	rm.n--
	st.queued--
	st.blockedAt[port] = 0
	if rm.n == 0 {
		st.occ &^= 1 << port
	}
	// The freed capacity may unblock the router feeding this ring — but
	// only if a push was actually refused since the last pop (links are
	// symmetric, so the upstream router is this port's neighbour); wake it
	// from a blocked park. Stirring mid-sweep follows the active set's
	// cursor rule, which reproduces the dense scan's same-tick ordering
	// exactly.
	if st.refused&(1<<port) != 0 {
		st.refused &^= 1 << port
		if up := st.nbr[port]; up >= 0 {
			n.stirRouter(int(up))
		}
	}
}

// stirRouter wakes a router whose parked state may have been invalidated by
// an event outside its own time-predictable horizon.
func (n *Network) stirRouter(id int) {
	st := &n.state[id]
	if st.queued > 0 && !st.faulty {
		st.quiet = 0
		n.active.Add(id)
	}
}

// stirAll wakes every router holding traffic. Called on events that can
// change what any parked scan would observe: route-table rebinds, port
// enable/disable, faults.
func (n *Network) stirAll() {
	for _, r := range n.uniq {
		n.stirRouter(int(r.ID))
	}
}

// Stir notifies the fabric that node-side state affecting packet admission
// at the given node changed — its sink gained queue space, or its task
// changed what it absorbs. The platform wires PE dequeues and task switches
// here so the serving router's parked ports re-evaluate on the same tick
// the dense scan would have reacted. Spurious stirs are harmless (an extra
// scan of a parked router is the no-op the dense scan executes every tick).
func (n *Network) Stir(id NodeID) {
	n.stirRouter(int(n.routers[id].ID))
}

// tryForward moves a head packet one hop out of port out. The ring slot is
// copied to the neighbour's ring — the packet itself is not touched (its
// hop counter travels in the slot; a pending requeue count is the rare
// exception) — the output link goes busy for the packet's flit count, and
// the transfer is reported to the routing monitor.
func (n *Network) tryForward(id int, st *routerState, inPort, out Port, s *ringSlot, now sim.Tick) bool {
	return n.forward(id, st, inPort, out, s, now, false)
}

// forward is tryForward's body. keep=true transfers a copy but retains the
// local head (the byzantine duplication path); the fault-free path always
// passes false.
func (n *Network) forward(id int, st *routerState, inPort, out Port, s *ringSlot, now sim.Tick, keep bool) bool {
	if (st.disabled|st.linkDown)&(1<<out) != 0 {
		return false
	}
	if st.linkBusy[out] > now {
		return false
	}
	next := st.nbr[out]
	if next < 0 {
		return false
	}
	nst := &n.state[next]
	if nst.faulty {
		return false
	}
	inSide := out.Opposite()
	if (nst.disabled|nst.linkDown)&(1<<inSide) != 0 {
		return false
	}
	dur := sim.Tick(s.flits)
	if dur < 1 {
		dur = 1
	}
	// Push into the neighbour's ring in place (one slot copy, not a
	// stack round trip through pushSlot), applying the transfer edits on
	// the destination slot.
	rm := &nst.rings[inSide]
	f := ringFlits(s.flits)
	if rm.used+f > n.capFlits {
		nst.refused |= 1 << inSide
		return false
	}
	base := uint32((int(next)*int(NumPorts) + int(inSide)) * n.spp)
	dst := &n.slots[base+((rm.head-base+rm.n)&n.sppMask)]
	*dst = *s
	dst.ready = now + dur
	dst.hops++
	requeued := dst.flags&slotRequeued != 0
	dst.flags &^= slotRequeued
	rm.n++
	rm.used += f
	nst.queued++
	nst.occ |= 1 << inSide
	nst.quiet = 0
	n.active.Add(int(next))

	if !keep {
		n.popIn(id, st, inPort)
	}
	st.linkBusy[out] = now + dur
	if requeued {
		// A successful forward ends the consecutive-requeue streak.
		n.pool.Deref(dst.id).requeues = 0
	}
	r := n.routers[id]
	r.Stats.Forwarded++
	if dst.kind == Data && r.Monitors.RoutedTask != nil {
		r.Monitors.RoutedTask(taskID(dst.task), now)
	}
	return true
}

// recoverBlocked applies the deadlock-recovery action to the blocked head of
// an input port. The first recoveries rotate the packet to the ring tail,
// releasing head-of-line blocking without losing traffic; after requeueLimit
// consecutive rotations without a successful forward, the packet is ejected
// through the recovery path (retarget or drop) — the "release deadlocked
// packets" behaviour of the paper's router, which is explicitly not
// guaranteed to resolve every deadlock.
func (n *Network) recoverBlocked(id int, st *routerState, port Port, s *ringSlot, now sim.Tick) {
	pkt := n.pool.Deref(s.id)
	pkt.Hops = int(s.hops)
	n.popIn(id, st, port)
	r := n.routers[id]
	r.Stats.Recovered++
	if r.Monitors.Recovery != nil {
		r.Monitors.Recovery(pkt, now)
	}
	pkt.requeues++
	if pkt.requeues <= r.requeueLimit {
		// Rotate to the tail: capacity freed by the pop guarantees the push.
		n.pushPacket(id, port, pkt, now)
		return
	}
	pkt.requeues = 0
	n.recoverAt(id, pkt, now)
}

// byzMeddle gives an armed byzantine router its chance to interfere with a
// data head about to be forwarded toward out. It reports true when the
// interference consumed the service (packet dropped, or forwarded by the
// byzantine action itself); false hands the head back to the honest path.
// Every draw comes from the router's private seeded RNG and happens only
// inside service visits, which are identical under dense and active
// stepping — so byzantine runs stay bit-reproducible.
func (n *Network) byzMeddle(id int, st *routerState, port, out Port, s *ringSlot, now sim.Tick) bool {
	bz := &n.byz[id]
	if bz.rate == 0 || uint32(bz.rng.Uint64()>>32) >= bz.rate {
		return false
	}
	mode := bz.modes
	if mode&(mode-1) != 0 {
		// Several behaviours armed: a second draw picks one.
		var set [3]uint8
		k := 0
		for b := uint8(1); b <= ByzDup; b <<= 1 {
			if mode&b != 0 {
				set[k] = b
				k++
			}
		}
		mode = set[bz.rng.Intn(k)]
	}
	switch mode {
	case ByzDrop:
		pkt := n.pool.Deref(s.id)
		pkt.Hops = int(s.hops)
		n.popIn(id, st, port)
		n.routers[id].Stats.Dropped++
		n.stats.ByzDropped++
		n.handleDrop(NodeID(id), pkt, DropByzantine)
		return true
	case ByzMisroute:
		if alt, ok := n.byzAltPort(st, out, bz); ok && n.forward(id, st, port, alt, s, now, false) {
			n.stats.ByzMisrouted++
			return true
		}
	case ByzDup:
		// The forwarded copy must own its own packet: ownership is linear
		// (one handle, one owner), so the duplicate is a real arena clone and
		// the local head keeps the original. Swap the clone's handle into the
		// slot for the copy-out, then restore it.
		orig := s.id
		src := n.pool.Deref(orig)
		dup := n.pool.Get()
		h := dup.h
		*dup = *src
		dup.h = h
		s.id = h
		ok := n.forward(id, st, port, out, s, now, true)
		s.id = orig
		if ok {
			n.stats.ByzDuplicated++
			return true
		}
		n.pool.Put(dup)
	}
	return false
}

// byzAltPort picks a wrong-but-locally-plausible output: a cardinal port
// other than the routed one with a wired, non-disabled, link-healthy exit.
// One RNG draw selects among the candidates; ok=false when the router has no
// alternative exit at all.
func (n *Network) byzAltPort(st *routerState, out Port, bz *byzState) (Port, bool) {
	var cand [NumPorts]Port
	k := 0
	for p := North; p <= West; p++ {
		if p == out || st.nbr[p] < 0 || (st.disabled|st.linkDown)&(1<<p) != 0 {
			continue
		}
		cand[k] = p
		k++
	}
	if k == 0 {
		return PortInvalid, false
	}
	return cand[bz.rng.Intn(k)], true
}

// SetByzantine arms (rate > 0) or disarms (rate == 0) byzantine behaviour on
// the router serving id. rate is the per-forward interference probability as
// a threshold out of 2^32; modes is a ByzMisroute|ByzDrop|ByzDup bitmask;
// seed initialises the router's private interference RNG so runs replay
// exactly. Arming with no modes is a disarm.
func (n *Network) SetByzantine(id NodeID, rate uint32, modes uint8, seed uint64) {
	rid := int(n.routers[id].ID)
	if modes == 0 {
		rate = 0
	}
	if n.byz == nil {
		if rate == 0 {
			return
		}
		n.byz = make([]byzState, n.nodes)
	}
	bz := &n.byz[rid]
	wasArmed := bz.rate != 0
	bz.rate = rate
	bz.modes = modes
	bz.rng.Reseed(seed)
	if armed := rate != 0; armed != wasArmed {
		if armed {
			n.byzCnt++
		} else {
			n.byzCnt--
		}
		n.byzAny = n.byzCnt > 0
	}
	n.stirRouter(rid)
}

// SetLinkHealth marks the link out of port p at the router serving id as
// down (healthy=false) or up. While down the endpoint refuses transfers out
// of p and admissions into p, exactly like an administratively disabled
// port; routes are NOT recomputed — a flaky link blocks traffic, it does not
// announce itself — so heads steering into it wait (and eventually take the
// deadlock-recovery path). Fault schedules emit both endpoints of a
// physical link together so the cut is symmetric.
func (n *Network) SetLinkHealth(id NodeID, p Port, healthy bool, now sim.Tick) {
	rid := int(n.routers[id].ID)
	st := &n.state[rid]
	if p < North || p > West {
		return
	}
	bit := uint8(1) << uint(p)
	if healthy {
		st.linkDown &^= bit
	} else {
		st.linkDown |= bit
	}
	// Either edge changes what a parked scan would observe — at this router
	// (a blocked head may now pass, or must stop) and at the neighbour
	// steering into this endpoint.
	n.stirRouter(rid)
	if nb := st.nbr[p]; nb >= 0 {
		n.stirRouter(int(nb))
	}
	_ = now
}

// Revive returns a failed router to service: rings were already drained at
// Fail time, so the router restarts empty, routes recompute around the
// restored fabric (or collapse back to the cached healthy tables when the
// last fault heals), and parked neighbours re-evaluate. On concentrated
// topologies this re-attaches the node's whole cluster. Reviving a healthy
// router is a no-op.
func (n *Network) Revive(id NodeID, now sim.Tick) {
	r := n.routers[id]
	rid := int(r.ID)
	st := &n.state[rid]
	if !st.faulty {
		return
	}
	st.faulty = false
	st.quiet = 0
	n.faultyCnt--
	n.haveFaults = n.faultyCnt > 0
	if n.faultyCnt == 0 {
		// All healed: restore the cached fault-free tables (nil under modes
		// that never computed them — dimension-order hops take over
		// either way).
		n.tables = n.healthy
		n.applyRoutingRows()
	} else if n.cfg.Mode != RouteXY {
		n.RecomputeRoutes() // stirs every parked router via applyRoutingRows
	} else {
		n.stirAll()
	}
	_ = now
}

// deliverLocal hands a head packet whose next hop is Local to its consumer:
// the RCAP machinery for config packets, the local sink for data and debug.
// Like servicePort, it reports (wake, true) when the port provably cannot
// act before wake (the sink is full and only a stir or a due recovery/lapse
// can change that) and (0, false) on any activity.
func (n *Network) deliverLocal(id int, st *routerState, port Port, s *ringSlot, now sim.Tick) (sim.Tick, bool) {
	r := n.routers[id]
	switch s.kind {
	case Config:
		pkt := n.pool.Deref(s.id)
		n.popIn(id, st, port)
		r.applyConfig(pkt, now)
		n.stats.ConfigOps++
		// The payload has been applied; the packet's lifecycle ends here.
		n.pool.Put(pkt)
	case Debug, Data:
		pkt := n.pool.Deref(s.id)
		pkt.Hops = int(s.hops)
		if r.sink == nil {
			n.popIn(id, st, port)
			r.Stats.Dropped++
			n.handleDrop(NodeID(id), pkt, DropNoSink)
			return 0, false
		}
		// A successful Accept transfers ownership to the sink (which may
		// consume and recycle the packet immediately): read what the monitor
		// needs before handing it over.
		isData, task := s.kind == Data, taskID(s.task)
		if r.sink.Accept(pkt, now) {
			n.popIn(id, st, port)
			r.Stats.Delivered++
			if isData && r.Monitors.InternalDelivery != nil {
				r.Monitors.InternalDelivery(task, now)
			}
			n.stats.Delivered++
			return 0, false
		}
		// Local sink full: same blocking rules as a busy link (the blocked
		// bookkeeping mirrors servicePort's forward-blocked tail). The sink
		// freeing space stirs the router (the platform wires PE dequeues to
		// Stir), so between now and the wake every scan of this port is a
		// provable no-op.
		r.Stats.BlockedTicks++
		if st.blockedAt[port] == 0 {
			st.blockedAt[port] = now
		} else if r.deadlockLimit > 0 && now-st.blockedAt[port] >= r.deadlockLimit {
			n.recoverBlocked(id, st, port, s, now)
			return 0, false
		}
		return blockedWake(st.blockedAt[port], r.deadlockLimit, s, 0, now), true
	}
	return 0, false
}

// recoverAt hands a packet that cannot make progress to the network's
// recovery handler; unrescued packets are dropped.
func (n *Network) recoverAt(id int, pkt *Packet, now sim.Tick) {
	if n.RecoveryHandler != nil && n.RecoveryHandler(NodeID(id), pkt, now) {
		n.stats.Rescued++
		return
	}
	n.routers[id].Stats.Dropped++
	n.handleDrop(NodeID(id), pkt, DropRecoveryFailed)
}

// ActiveRouters returns the number of routers currently holding traffic.
func (n *Network) ActiveRouters() int { return n.active.Len() }

// Inject enqueues a packet at the source node's Local input channel.
// It returns false (without consuming the packet) under back-pressure.
func (n *Network) Inject(at NodeID, p *Packet, now sim.Tick) bool {
	if n.routers[at].Inject(p, now) {
		n.stats.Injected++
		return true
	}
	return false
}

// NextHop returns the output port at from toward dst under the current
// routing mode.
func (n *Network) NextHop(from, dst NodeID) Port {
	if dst < 0 || int(dst) >= n.nodes {
		return PortInvalid
	}
	return n.hop(&n.state[n.routers[from].ID], int32(dst))
}

// Alive reports whether the node's router is functioning.
func (n *Network) Alive(id NodeID) bool { return !n.state[n.routers[id].ID].faulty }

// FaultyCount returns the number of failed routers.
func (n *Network) FaultyCount() int { return n.faultyCnt }

// Fail marks the router serving a node as failed, drains and accounts its
// buffered packets, and recomputes fault-aware routes. On concentrated
// topologies this takes the node's whole cluster off the fabric (the shared
// router is the cluster's only attachment point). Failing an already-failed
// router is a no-op.
func (n *Network) Fail(id NodeID, now sim.Tick) {
	r := n.routers[id]
	rid := int(r.ID)
	st := &n.state[rid]
	if st.faulty {
		return
	}
	// Drain the rings first (collecting the lost packets in FIFO port
	// order), then account the drops, exactly like the pre-SoA router did.
	// The scratch buffer is detached while the user-visible DropHandler
	// runs: a handler that re-enters Fail gets a fresh buffer instead of
	// aliasing this loop's backing array.
	st.faulty = true
	lost := n.drainBuf[:0]
	n.drainBuf = nil
	for p := Port(0); p < NumPorts; p++ {
		for st.rings[p].n > 0 {
			s := n.headSlot(st, p)
			pkt := n.pool.Deref(s.id)
			pkt.Hops = int(s.hops)
			lost = append(lost, pkt)
			n.popIn(rid, st, p)
		}
		st.blockedAt[p] = 0
	}
	st.refused = 0
	r.Stats.Dropped += uint64(len(lost))
	n.active.Remove(rid)
	n.faultyCnt++
	for i, p := range lost {
		n.handleDrop(r.ID, p, DropRouterFailed)
		lost[i] = nil
	}
	n.drainBuf = lost[:0]
	n.haveFaults = true
	if n.cfg.Mode != RouteXY {
		n.RecomputeRoutes() // stirs every parked router via applyRoutingRows
	} else {
		// No route recomputation under pure XY, but parked neighbours must
		// still re-evaluate heads steering into the dead router.
		n.stirAll()
	}
	_ = now
}

// RecomputeRoutes rebuilds the fault-aware shortest-path tables. A huge
// fabric never builds tables (they are O(nodes²)); it stays on live XY and
// only re-evaluates parked heads.
func (n *Network) RecomputeRoutes() {
	if n.huge {
		n.stirAll()
		return
	}
	n.tables = computeTables(n.Topo, func(id NodeID) bool { return !n.state[n.routers[id].ID].faulty })
	if !n.haveFaults && n.healthy == nil {
		n.healthy = n.tables
	}
	n.applyRoutingRows()
}

// Reset restores the fabric to its as-constructed state in place: routers
// revive with empty rings and default settings, counters clear, and the
// fault-free route tables are restored. Buffered packets are recycled into
// the pool without drop accounting — a reset ends the run they belonged to.
func (n *Network) Reset() {
	for _, r := range n.uniq {
		rid := int(r.ID)
		st := &n.state[rid]
		for p := Port(0); p < NumPorts; p++ {
			for st.rings[p].n > 0 {
				pkt := n.pool.Deref(n.headSlot(st, p).id)
				n.popIn(rid, st, p)
				n.pool.Put(pkt)
			}
			st.linkBusy[p] = 0
			st.blockedAt[p] = 0
		}
		st.occ = 0
		st.rr = 0
		st.disabled = 0
		st.refused = 0
		st.linkDown = 0
		st.faulty = false
		st.queued = 0
		st.quiet = 0
		r.reset(n.cfg)
	}
	n.active.Clear()
	n.haveFaults = false
	n.faultyCnt = 0
	for i := range n.byz {
		n.byz[i] = byzState{}
	}
	n.byzCnt = 0
	n.byzAny = false
	n.stats = NetworkStats{}
	n.tables = n.healthy
	n.applyRoutingRows()
}

// Reachable reports whether dst can be reached from src under the current
// routing state.
func (n *Network) Reachable(src, dst NodeID) bool {
	if !n.Alive(src) || !n.Alive(dst) {
		return false
	}
	if src == dst {
		return true
	}
	if !n.haveFaults || n.cfg.Mode == RouteXY {
		return true // healthy mesh is fully connected
	}
	if n.huge {
		// No tables to consult: optimistic under faults. A wrong answer
		// costs a rescue retry through deadlock recovery, not correctness.
		return true
	}
	return n.tables.NextHop(src, dst) != PortInvalid
}

// InFlight counts packets currently buffered anywhere in the fabric.
func (n *Network) InFlight() int {
	total := 0
	for _, r := range n.uniq {
		total += int(n.state[r.ID].queued)
	}
	return total
}

func (n *Network) handleDrop(at NodeID, p *Packet, reason DropReason) {
	n.stats.Dropped++
	if n.DropHandler != nil {
		n.DropHandler(at, p, reason)
	}
	// The handler was the last reader: the packet's lifecycle ends here.
	n.pool.Put(p)
}

// String summarises the fabric state.
func (n *Network) String() string {
	return fmt.Sprintf("noc %s, %d faulty, %d in flight", n.Topo, n.faultyCnt, n.InFlight())
}

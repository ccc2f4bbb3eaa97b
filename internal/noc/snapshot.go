package noc

import (
	"fmt"
	"math/bits"
	"slices"

	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/wire"
)

// Checkpoint support for the fabric (DESIGN.md §15). A NetworkState is a
// deep, self-contained copy of everything a Network mutates while running:
// the packet arena (per-slot packet values, generation tags, free list and
// accounting), the shared ring-slot slice, the per-router hot records, the
// active sets, byzantine arming (including each router's private RNG
// stream), fault flags and fabric counters. Everything immutable —
// topology, per-axis hop tables, router coordinates, neighbour wiring, the
// healthy route tables — stays with the platform and is never copied. Hop
// rows are views into the route tables, so they are rebound on restore, not
// copied.
//
// The fault-aware route tables sit in between: their *contents* are
// immutable once computed (faults swap the pointer, never edit in place), so
// an in-memory snapshot shares them by reference across every fork. Only a
// checkpoint decoded from a file lacks the pointer; LoadState then recomputes
// the tables from the restored fault flags, which is deterministic and yields
// identical contents.
//
// A snapshot is compact: it keeps only the live arena packets and the
// occupied ring slots. A free packet is always exactly Packet{pooled: true}
// (Put clears it) and an empty slot is never read, so both are rebuilt on
// load. The CENCKPT1 network section is still the dense dump — every arena
// packet and every ring slot in place — so AppendBinary writes the free
// packets and zeroed empty slots where they sit, and DecodeBinary compacts.

// ArenaIndex resolves the arena slot a packet is bound to in this pool —
// how higher layers record packet references in a checkpoint (the slot
// index is stable across snapshot and restore; pointers are not).
func (pp *PacketPool) ArenaIndex(p *Packet) (int32, bool) { return pp.slotOf(p) }

// ArenaPacket returns the packet bound to an arena slot.
func (pp *PacketPool) ArenaPacket(idx int32) *Packet { return pp.slots[idx] }

// sliceFor returns s resized to n elements, reallocating only when the
// capacity is short — the restore hot path reuses checkpoint backing.
func sliceFor[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// poolState captures a PacketPool: the arena size, the live packets with
// their arena indices, the generation tags, the free list and the exact
// accounting counters, so a restored pool's Stats and future Get/Put
// sequence are bit-identical. Free packets are not kept: each is exactly
// Packet{pooled: true}.
type poolState struct {
	slots            int
	live             []Packet
	liveAt           []int32 // live's arena indices, ascending
	gen              []uint32
	free             []int32
	news, gets, puts uint64
}

// freePacket is what every free arena slot holds (PacketPool.Put).
var freePacket = Packet{pooled: true}

// keep records arena slot i's packet when it is live.
func (st *poolState) keep(i int, p *Packet) {
	if !p.pooled {
		st.live = append(st.live, *p)
		st.liveAt = append(st.liveAt, int32(i))
	}
}

func (pp *PacketPool) saveState(st *poolState) {
	st.slots = len(pp.slots)
	st.live = slices.Grow(st.live[:0], len(pp.slots)-len(pp.free))
	st.liveAt = slices.Grow(st.liveAt[:0], len(pp.slots)-len(pp.free))
	for i, p := range pp.slots {
		st.keep(i, p)
	}
	st.gen = append(st.gen[:0], pp.gen...)
	st.free = append(st.free[:0], pp.free...)
	st.news, st.gets, st.puts = pp.news, pp.gets, pp.puts
}

// loadState restores the arena. The target pool grows by carving fresh slab
// packets (bulk, not per-packet) when the checkpoint bound more slots than
// it has; extra target slots are truncated away (their packets are
// unreferenced after restore and simply return to the garbage collector).
func (pp *PacketPool) loadState(st *poolState) {
	want := st.slots
	for len(pp.slots) < want {
		if len(pp.slab) == 0 {
			pp.slab = make([]Packet, slabSize)
		}
		p := &pp.slab[0]
		pp.slab = pp.slab[1:]
		pp.bind(p)
	}
	pp.slots = pp.slots[:want]
	pp.gen = sliceFor(pp.gen, want)
	copy(pp.gen, st.gen)
	for _, p := range pp.slots {
		*p = freePacket
	}
	for k, i := range st.liveAt {
		*pp.slots[i] = st.live[k]
	}
	pp.free = append(pp.free[:0], st.free...)
	pp.news, pp.gets, pp.puts = st.news, st.gets, st.puts
}

// routerCold is the snapshot of one router's cold state (the mutable part
// of the *Router value itself; sinks and monitor taps stay with the target).
type routerCold struct {
	deadlockLimit sim.Tick
	requeueLimit  int
	stats         RouterStats
}

// NetworkState is an opaque deep copy of a Network's mutable state. Obtain
// one with Network.SaveState, restore it into any same-shape fabric with
// Network.LoadState, and serialize it with AppendBinary/DecodeBinary. A
// single NetworkState may be restored into many platforms (forking): it is
// read-only during LoadState.
type NetworkState struct {
	pool poolState
	// slots holds the occupied ring slots only: router record by record,
	// port by port, oldest first. The records' ring heads place them.
	slots      []ringSlot
	recs       []routerState // per-uniq hot records, hop row detached
	cold       []routerCold
	active     sim.ActiveSetState
	hasByz     bool
	byz        []byzState
	byzCnt     int
	byzAny     bool
	haveFaults bool
	faultyCnt  int
	stats      NetworkStats

	// tables is the in-memory shared reference (nil after DecodeBinary and
	// on fabrics that are healthy under XY routing).
	tables *routeTables

	// Shape guard: a state only restores into the fabric geometry it came
	// from.
	nodes, spp, uniqN int
	huge              bool
}

// SaveState deep-copies the fabric's mutable state into st, reusing st's
// backing storage so a warm snapshot allocates nothing.
func (n *Network) SaveState(st *NetworkState) {
	if n.stale {
		n.refreshRoutes()
	}
	n.pool.saveState(&st.pool)

	st.slots = slices.Grow(st.slots[:0], n.InFlight())
	st.recs = sliceFor(st.recs, len(n.uniq))
	st.cold = sliceFor(st.cold, len(n.uniq))
	for i, r := range n.uniq {
		rec := &n.state[r.ID]
		for p := range rec.rings {
			rm := &rec.rings[p]
			for k := uint32(0); k < rm.n; k++ {
				st.slots = append(st.slots, n.slots[ringIndex(rm.head, k, n.sppMask)])
			}
		}
		st.recs[i] = *rec
		// The row is a view into the route tables, which travel by
		// reference below; LoadState rebinds it.
		st.recs[i].hop = nil
		st.cold[i] = routerCold{deadlockLimit: r.deadlockLimit, requeueLimit: r.requeueLimit, stats: r.Stats}
	}

	n.active.SaveState(&st.active)

	st.hasByz = n.byz != nil
	st.byz = append(st.byz[:0], n.byz...)
	st.byzCnt, st.byzAny = n.byzCnt, n.byzAny

	st.haveFaults, st.faultyCnt = n.haveFaults, n.faultyCnt
	st.stats = n.stats
	st.tables = n.tables

	st.nodes, st.spp, st.uniqN = n.nodes, n.spp, len(n.uniq)
	st.huge = n.huge
}

// LoadState restores a previously saved state into the fabric. The target
// must have the same geometry (node count, ring capacity, router set) as
// the fabric the state was saved from; construction-derived wiring is
// reused, so the restore is a handful of bulk copies.
func (n *Network) LoadState(st *NetworkState) {
	if st.nodes != n.nodes || st.spp != n.spp || st.uniqN != len(n.uniq) || st.huge != n.huge {
		panic(fmt.Sprintf("noc: checkpoint shape mismatch: state is %d nodes/%d spp/%d routers, fabric is %d/%d/%d",
			st.nodes, st.spp, st.uniqN, n.nodes, n.spp, len(n.uniq)))
	}
	n.pool.loadState(&st.pool)

	// Only occupied ring slots are written: a slot outside [head, head+n)
	// is never read, and AppendBinary writes empty slots as zeros.
	k := 0
	for i, r := range n.uniq {
		if id := recRouter(&st.recs[i], n.spp); id != int(r.ID) {
			panic(fmt.Sprintf("noc: checkpoint record %d belongs to router %d, fabric router is %d", i, id, r.ID))
		}
		// The router's coordinates and neighbour links are derived at
		// construction: keep them across the record overwrite.
		dst := &n.state[r.ID]
		x, y, nbr := dst.x, dst.y, dst.nbr
		*dst = st.recs[i]
		dst.x, dst.y, dst.nbr = x, y, nbr
		for p := range dst.rings {
			rm := &dst.rings[p]
			for j := uint32(0); j < rm.n; j++ {
				n.slots[ringIndex(rm.head, j, n.sppMask)] = st.slots[k]
				k++
			}
		}
		cold := &st.cold[i]
		r.deadlockLimit, r.requeueLimit, r.Stats = cold.deadlockLimit, cold.requeueLimit, cold.stats
	}

	n.active.LoadState(&st.active)

	if st.hasByz {
		if n.byz == nil {
			n.byz = make([]byzState, n.nodes)
		}
		copy(n.byz, st.byz)
	} else {
		// The source never armed byzantine state: drop the target's, so a
		// stale arming cannot leak into a later SetByzantine epoch and the
		// target's next snapshot carries no byzantine records either.
		n.byz = nil
	}
	n.byzCnt, n.byzAny = st.byzCnt, st.byzAny

	n.haveFaults, n.faultyCnt = st.haveFaults, st.faultyCnt
	n.stats = st.stats
	n.stale = false

	// Route tables: share the in-memory reference when the state carries
	// one. A file-decoded state does not; recompute from the restored fault
	// flags (deterministic — identical contents to the source's tables).
	// The hop rows are then bound to them without applyRoutingRows: a stir
	// would wake parked routers, perturbing the quiet fast-forwards the
	// snapshot captured.
	switch {
	case st.tables != nil:
		n.tables = st.tables
	case !n.huge && n.haveFaults && n.cfg.Mode != RouteXY:
		n.tables = n.buildTables()
	default:
		n.tables = n.healthy
	}
	n.bindRows()
}

// ringIndex is the slot index of entry k (0 = oldest) of the ring whose
// head is at slot head. Rings are power-of-two ranges of the slot slice, so
// the ring's base is the head with its offset bits cleared.
func ringIndex(head, k, mask uint32) uint32 {
	return head&^mask | (head+k)&mask
}

// recRouter is the router whose record rec is: its rings' slot ranges
// start at router*NumPorts*spp.
func recRouter(rec *routerState, spp int) int {
	return int(rec.rings[0].head) / (int(NumPorts) * spp)
}

// --- binary encoding (the network section of a checkpoint file) ---

// Encoded sizes of the network section's fixed-size elements.
const (
	packetWireSize = 8 + 1 + 7*8 + 5*8 + 1 + 2*8 + 1 + 8 + 1 + 4
	slotWireSize   = 8 + 8 + 4 + 4 + 2 + 2 + 2 + 1 + 1
	recWireSize    = 8 + 4 + 6 + int(NumPorts)*(4*4+2*8)
	coldWireSize   = 8 + 8 + 7*8
	byzWireSize    = 4 + 1 + 8
)

func appendPacket(b []byte, p *Packet) []byte {
	b = wire.AppendU64(b, p.ID)
	b = wire.AppendU8(b, uint8(p.Kind))
	b = wire.AppendI64(b, int64(p.Src))
	b = wire.AppendI64(b, int64(p.Dst))
	b = wire.AppendI64(b, int64(p.Task))
	b = wire.AppendU64(b, p.Instance)
	b = wire.AppendI64(b, int64(p.Branch))
	b = wire.AppendI64(b, int64(p.Origin))
	b = wire.AppendI64(b, int64(p.JoinDst))
	b = wire.AppendI64(b, int64(p.Flits))
	b = wire.AppendI64(b, int64(p.Created))
	b = wire.AppendI64(b, int64(p.Deadline))
	b = wire.AppendI64(b, int64(p.Hops))
	b = wire.AppendI64(b, int64(p.Retargets))
	b = wire.AppendU8(b, uint8(p.Op))
	b = wire.AppendI64(b, int64(p.Arg))
	b = wire.AppendI64(b, int64(p.Arg2))
	b = wire.AppendBool(b, p.lapsedSeen)
	b = wire.AppendI64(b, int64(p.requeues))
	b = wire.AppendBool(b, p.pooled)
	b = wire.AppendU32(b, uint32(p.h))
	return b
}

func readPacket(r *wire.Reader, p *Packet) {
	p.ID = r.U64()
	p.Kind = Kind(r.U8())
	p.Src = NodeID(r.I64())
	p.Dst = NodeID(r.I64())
	p.Task = taskgraph.TaskID(r.I64())
	p.Instance = r.U64()
	p.Branch = int(r.I64())
	p.Origin = NodeID(r.I64())
	p.JoinDst = NodeID(r.I64())
	p.Flits = int(r.I64())
	p.Created = sim.Tick(r.I64())
	p.Deadline = sim.Tick(r.I64())
	p.Hops = int(r.I64())
	p.Retargets = int(r.I64())
	p.Op = ConfigOp(r.U8())
	p.Arg = int(r.I64())
	p.Arg2 = int(r.I64())
	p.lapsedSeen = r.Bool()
	p.requeues = int(r.I64())
	p.pooled = r.Bool()
	p.h = PacketID(r.U32())
}

func appendRouterRec(b []byte, rec *routerState) []byte {
	b = wire.AppendI64(b, int64(rec.quiet))
	b = wire.AppendU32(b, uint32(rec.queued))
	b = wire.AppendU8(b, rec.occ)
	b = wire.AppendU8(b, rec.rr)
	b = wire.AppendU8(b, rec.disabled)
	b = wire.AppendBool(b, rec.faulty)
	b = wire.AppendU8(b, rec.refused)
	b = wire.AppendU8(b, rec.linkDown)
	for p := 0; p < int(NumPorts); p++ {
		b = wire.AppendU32(b, uint32(rec.nbr[p]))
		b = wire.AppendU32(b, rec.rings[p].head)
		b = wire.AppendU32(b, rec.rings[p].n)
		b = wire.AppendU32(b, rec.rings[p].used)
		b = wire.AppendI64(b, int64(rec.linkBusy[p]))
		b = wire.AppendI64(b, int64(rec.blockedAt[p]))
	}
	return b
}

func readRouterRec(r *wire.Reader, rec *routerState) {
	rec.quiet = sim.Tick(r.I64())
	rec.queued = int32(r.U32())
	rec.occ = r.U8()
	rec.rr = r.U8()
	rec.disabled = r.U8()
	rec.faulty = r.Bool()
	rec.refused = r.U8()
	rec.linkDown = r.U8()
	for p := 0; p < int(NumPorts); p++ {
		rec.nbr[p] = int32(r.U32())
		rec.rings[p].head = r.U32()
		rec.rings[p].n = r.U32()
		rec.rings[p].used = r.U32()
		rec.linkBusy[p] = sim.Tick(r.I64())
		rec.blockedAt[p] = sim.Tick(r.I64())
	}
	rec.hop = nil
}

func appendSlot(b []byte, s *ringSlot) []byte {
	b = wire.AppendI64(b, int64(s.ready))
	b = wire.AppendI64(b, int64(s.deadline))
	b = wire.AppendU32(b, uint32(s.id))
	b = wire.AppendU32(b, uint32(s.dst))
	b = wire.AppendU16(b, uint16(s.task))
	b = wire.AppendU16(b, uint16(s.flits))
	b = wire.AppendU16(b, s.hops)
	b = wire.AppendU8(b, uint8(s.kind))
	b = wire.AppendU8(b, s.flags)
	return b
}

func readSlot(r *wire.Reader, s *ringSlot) {
	s.ready = sim.Tick(r.I64())
	s.deadline = sim.Tick(r.I64())
	s.id = PacketID(r.U32())
	s.dst = int32(r.U32())
	s.task = int16(r.U16())
	s.flits = int16(r.U16())
	s.hops = r.U16()
	s.kind = Kind(r.U8())
	s.flags = r.U8()
}

func appendActiveSet(b []byte, st *sim.ActiveSetState) []byte {
	b = wire.AppendU32(b, uint32(len(st.Words)))
	for _, w := range st.Words {
		b = wire.AppendU64(b, w)
	}
	b = wire.AppendI64(b, int64(st.N))
	return b
}

func readActiveSet(r *wire.Reader, st *sim.ActiveSetState) {
	n := r.Count(8)
	st.Words = sliceFor(st.Words, n)
	for i := range st.Words {
		st.Words[i] = r.U64()
	}
	st.N = int(r.I64())
}

func appendRouterStats(b []byte, s *RouterStats) []byte {
	b = wire.AppendU64(b, s.Forwarded)
	b = wire.AppendU64(b, s.Delivered)
	b = wire.AppendU64(b, s.ConfigOps)
	b = wire.AppendU64(b, s.Recovered)
	b = wire.AppendU64(b, s.Dropped)
	b = wire.AppendU64(b, s.BlockedTicks)
	b = wire.AppendU64(b, s.LapsesSeen)
	return b
}

func readRouterStats(r *wire.Reader, s *RouterStats) {
	s.Forwarded = r.U64()
	s.Delivered = r.U64()
	s.ConfigOps = r.U64()
	s.Recovered = r.U64()
	s.Dropped = r.U64()
	s.BlockedTicks = r.U64()
	s.LapsesSeen = r.U64()
}

// EncodedLen is the exact length AppendBinary appends, computed without
// encoding.
func (st *NetworkState) EncodedLen() int {
	return 4 + 4 + 4 + 1 +
		4 + st.pool.slots*packetWireSize +
		4 + 4*len(st.pool.gen) + 4 + 4*len(st.pool.free) + 3*8 +
		4 + st.denseSlots()*slotWireSize +
		4 + len(st.recs)*recWireSize + 4 + len(st.cold)*coldWireSize +
		4 + 8*len(st.active.Words) + 8 +
		1 + 4 + len(st.byz)*byzWireSize + 8 + 1 +
		1 + 8 +
		8*8
}

// denseSlots is the length of the fabric's ring-slot slice.
func (st *NetworkState) denseSlots() int { return st.nodes * int(NumPorts) * st.spp }

// AppendBinary serializes the state (excluding the shared route-table
// reference, which LoadState recomputes after a file restore) in the dense
// layout: free packets and empty ring slots are written in place.
func (st *NetworkState) AppendBinary(b []byte) []byte {
	b = slices.Grow(b, st.EncodedLen())
	b = wire.AppendU32(b, uint32(st.nodes))
	b = wire.AppendU32(b, uint32(st.spp))
	b = wire.AppendU32(b, uint32(st.uniqN))
	b = wire.AppendBool(b, st.huge)

	// The arena: every packet written free, then each live one overwritten
	// in place.
	b = wire.AppendU32(b, uint32(st.pool.slots))
	start := len(b)
	for range st.pool.slots {
		b = appendPacket(b, &freePacket)
	}
	for k, i := range st.pool.liveAt {
		off := start + int(i)*packetWireSize
		appendPacket(b[off:off], &st.pool.live[k])
	}
	b = wire.AppendU32(b, uint32(len(st.pool.gen)))
	for _, g := range st.pool.gen {
		b = wire.AppendU32(b, g)
	}
	b = wire.AppendU32(b, uint32(len(st.pool.free)))
	for _, f := range st.pool.free {
		b = wire.AppendU32(b, uint32(f))
	}
	b = wire.AppendU64(b, st.pool.news)
	b = wire.AppendU64(b, st.pool.gets)
	b = wire.AppendU64(b, st.pool.puts)

	// The slot section: zeroed in bulk, then each occupied slot written in
	// place (appending to a zero-length window at its offset).
	dense := st.denseSlots()
	b = wire.AppendU32(b, uint32(dense))
	start = len(b)
	b = slices.Grow(b, dense*slotWireSize)[:start+dense*slotWireSize]
	clear(b[start:])
	mask := uint32(st.spp - 1)
	k := 0
	for i := range st.recs {
		for p := range st.recs[i].rings {
			rm := &st.recs[i].rings[p]
			for j := uint32(0); j < rm.n; j++ {
				off := start + int(ringIndex(rm.head, j, mask))*slotWireSize
				appendSlot(b[off:off], &st.slots[k])
				k++
			}
		}
	}

	b = wire.AppendU32(b, uint32(len(st.recs)))
	for i := range st.recs {
		b = appendRouterRec(b, &st.recs[i])
	}
	b = wire.AppendU32(b, uint32(len(st.cold)))
	for i := range st.cold {
		c := &st.cold[i]
		b = wire.AppendI64(b, int64(c.deadlockLimit))
		b = wire.AppendI64(b, int64(c.requeueLimit))
		b = appendRouterStats(b, &c.stats)
	}

	b = appendActiveSet(b, &st.active)

	b = wire.AppendBool(b, st.hasByz)
	b = wire.AppendU32(b, uint32(len(st.byz)))
	for i := range st.byz {
		bz := &st.byz[i]
		b = wire.AppendU32(b, bz.rate)
		b = wire.AppendU8(b, bz.modes)
		b = wire.AppendU64(b, bz.rng.State())
	}
	b = wire.AppendI64(b, int64(st.byzCnt))
	b = wire.AppendBool(b, st.byzAny)

	b = wire.AppendBool(b, st.haveFaults)
	b = wire.AppendI64(b, int64(st.faultyCnt))

	b = wire.AppendU64(b, st.stats.Injected)
	b = wire.AppendU64(b, st.stats.Delivered)
	b = wire.AppendU64(b, st.stats.ConfigOps)
	b = wire.AppendU64(b, st.stats.Dropped)
	b = wire.AppendU64(b, st.stats.Rescued)
	b = wire.AppendU64(b, st.stats.ByzMisrouted)
	b = wire.AppendU64(b, st.stats.ByzDropped)
	b = wire.AppendU64(b, st.stats.ByzDuplicated)
	return b
}

// DecodeBinary reads a state serialized by AppendBinary and compacts it:
// free packets and empty ring slots are dropped. The decoded state carries
// no route-table reference; LoadState recomputes the tables from the fault
// flags. A state compaction cannot place — a recycled packet that is not
// cleared, a free-list index outside the arena or naming a live packet, a
// ring head outside its router's ring — is an error.
func (st *NetworkState) DecodeBinary(r *wire.Reader) error {
	st.nodes = int(r.U32())
	st.spp = int(r.U32())
	st.uniqN = int(r.U32())
	st.huge = r.Bool()

	n := r.Count(packetWireSize)
	st.pool.slots = n
	st.pool.live, st.pool.liveAt = st.pool.live[:0], st.pool.liveAt[:0]
	var bad error
	for i := 0; i < n; i++ {
		var p Packet
		readPacket(r, &p)
		st.pool.keep(i, &p)
		if p.pooled && p != freePacket && bad == nil {
			bad = fmt.Errorf("noc: checkpoint arena packet %d is recycled but not cleared", i)
		}
	}
	n = r.Count(4)
	st.pool.gen = sliceFor(st.pool.gen, n)
	for i := range st.pool.gen {
		st.pool.gen[i] = r.U32()
	}
	n = r.Count(4)
	st.pool.free = sliceFor(st.pool.free, n)
	for i := range st.pool.free {
		st.pool.free[i] = int32(r.U32())
	}
	st.pool.news = r.U64()
	st.pool.gets = r.U64()
	st.pool.puts = r.U64()

	// The dense slot section is compacted once the router records, which
	// say which slots are occupied, have been read.
	dense := r.Count(slotWireSize)
	raw := r.Bytes(dense * slotWireSize)

	n = r.Count(recWireSize)
	st.recs = sliceFor(st.recs, n)
	for i := range st.recs {
		readRouterRec(r, &st.recs[i])
	}
	n = r.Count(coldWireSize)
	st.cold = sliceFor(st.cold, n)
	for i := range st.cold {
		c := &st.cold[i]
		c.deadlockLimit = sim.Tick(r.I64())
		c.requeueLimit = int(r.I64())
		readRouterStats(r, &c.stats)
	}

	readActiveSet(r, &st.active)

	st.hasByz = r.Bool()
	n = r.Count(byzWireSize)
	st.byz = sliceFor(st.byz, n)
	for i := range st.byz {
		bz := &st.byz[i]
		bz.rate = r.U32()
		bz.modes = r.U8()
		bz.rng.SetState(r.U64())
	}
	st.byzCnt = int(r.I64())
	st.byzAny = r.Bool()

	st.haveFaults = r.Bool()
	st.faultyCnt = int(r.I64())

	st.stats.Injected = r.U64()
	st.stats.Delivered = r.U64()
	st.stats.ConfigOps = r.U64()
	st.stats.Dropped = r.U64()
	st.stats.Rescued = r.U64()
	st.stats.ByzMisrouted = r.U64()
	st.stats.ByzDropped = r.U64()
	st.stats.ByzDuplicated = r.U64()

	st.tables = nil
	if err := r.Err(); err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	if err := st.checkLengths(dense); err != nil {
		return err
	}
	if err := st.checkFree(); err != nil {
		return err
	}
	return st.compactSlots(raw)
}

// checkFree rejects a free list that names a slot outside the arena, a
// live packet, or one slot twice: the rebuilt free packets would not be
// the ones the file holds.
func (st *NetworkState) checkFree() error {
	pool := &st.pool
	seen := make([]bool, pool.slots)
	for _, f := range pool.free {
		if f < 0 || int(f) >= pool.slots {
			return fmt.Errorf("noc: checkpoint free-list index %d outside the %d-packet arena", f, pool.slots)
		}
		if _, live := slices.BinarySearch(pool.liveAt, f); live || seen[f] {
			return fmt.Errorf("noc: checkpoint free-list index %d names a live or already-free packet", f)
		}
		seen[f] = true
	}
	return nil
}

// compactSlots keeps the occupied entries of the dense slot section raw,
// in the order SaveState records them. Every record's rings must lie in
// one router's ring ranges, records must name ascending routers, and no
// ring may hold more entries than it has slots.
func (st *NetworkState) compactSlots(raw []byte) error {
	st.slots = st.slots[:0]
	mask := uint32(st.spp - 1)
	prev := -1
	for i := range st.recs {
		rec := &st.recs[i]
		id := recRouter(rec, st.spp)
		if id <= prev || id >= st.nodes {
			return fmt.Errorf("noc: checkpoint router record %d has ring head %d outside the arena or out of order",
				i, rec.rings[0].head)
		}
		prev = id
		for p := range rec.rings {
			rm := &rec.rings[p]
			if int(rm.head)/st.spp != id*int(NumPorts)+p || rm.n > uint32(st.spp) {
				return fmt.Errorf("noc: checkpoint router record %d port %d has ring head %d and %d entries outside its ring",
					i, p, rm.head, rm.n)
			}
			for j := uint32(0); j < rm.n; j++ {
				off := int(ringIndex(rm.head, j, mask)) * slotWireSize
				var s ringSlot
				readSlot(wire.NewReader(raw[off:off+slotWireSize]), &s)
				st.slots = append(st.slots, s)
			}
		}
	}
	return nil
}

// CheckTopology rejects a decoded state that cannot restore into a fabric
// over the kind topology on a w×h grid: a different node count, or router
// records that do not name its routers one for one in ascending order.
// LoadState panics on either; a file is checked here, where its topology
// is known, so a corrupt one is an error instead.
func (st *NetworkState) CheckTopology(kind string, w, h int) error {
	if w <= 0 || st.nodes%w != 0 || h != st.nodes/w || st.huge != (st.nodes > hugeNodes) {
		return fmt.Errorf("noc: checkpoint is for %d nodes, its topology is %dx%d", st.nodes, w, h)
	}
	topo, err := MakeTopology(kind, w, h)
	if err != nil {
		return err
	}
	i := 0
	for id := 0; id < st.nodes; id++ {
		if topo.RouterOf(NodeID(id)) != NodeID(id) {
			continue
		}
		if i == len(st.recs) || recRouter(&st.recs[i], st.spp) != id {
			return fmt.Errorf("noc: checkpoint router record %d does not belong to router %d", i, id)
		}
		i++
	}
	if i != len(st.recs) {
		return fmt.Errorf("noc: checkpoint has %d router records, topology has %d routers", len(st.recs), i)
	}
	return nil
}

// checkLengths rejects a decoded state whose section lengths disagree with
// its shape header. LoadState sizes its loops by the header (one record per
// router, the fabric's full slot slice, one byzantine record per node), so
// a corrupt file whose checksum still matches would otherwise panic there
// instead of failing here.
func (st *NetworkState) checkLengths(dense int) error {
	if len(st.recs) != st.uniqN || len(st.cold) != st.uniqN {
		return fmt.Errorf("noc: checkpoint has %d router records and %d cold records for %d routers",
			len(st.recs), len(st.cold), st.uniqN)
	}
	if st.spp <= 0 || st.spp&(st.spp-1) != 0 {
		return fmt.Errorf("noc: checkpoint has %d slots per ring, want a power of two", st.spp)
	}
	hi, want := bits.Mul64(uint64(st.nodes)*uint64(NumPorts), uint64(st.spp))
	if hi != 0 || uint64(dense) != want {
		return fmt.Errorf("noc: checkpoint has %d ring slots, want %d nodes × %d ports × %d",
			dense, st.nodes, NumPorts, st.spp)
	}
	wantByz := 0
	if st.hasByz {
		wantByz = st.nodes
	}
	if len(st.byz) != wantByz {
		return fmt.Errorf("noc: checkpoint has %d byzantine records, want %d", len(st.byz), wantByz)
	}
	return nil
}

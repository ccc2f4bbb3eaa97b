package noc

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"centurion/internal/sim"
	"centurion/internal/wire"
)

// TestNetworkStateDecodeRejectsLengthMismatch re-encodes a state with one
// section cut short (or padded) against its shape header. The checksum of a
// checkpoint file would still match, so the decoder itself must refuse it —
// LoadState sizes its loops by the header and would otherwise panic.
func TestNetworkStateDecodeRejectsLengthMismatch(t *testing.T) {
	topo := NewMesh(4, 4)
	n := NewNetwork(topo, DefaultConfig())
	n.SetByzantine(topo.ID(Coord{1, 1}), 1<<31, ByzDrop, 7)
	var good NetworkState
	n.SaveState(&good)

	decode := func(st *NetworkState) error {
		var out NetworkState
		return out.DecodeBinary(wire.NewReader(st.AppendBinary(nil)))
	}
	if err := decode(&good); err != nil {
		t.Fatalf("intact state rejected: %v", err)
	}

	for _, tc := range []struct {
		name, want string
		cut        func(st *NetworkState)
	}{
		{"router records", "router records", func(st *NetworkState) { st.recs = st.recs[:len(st.recs)-1] }},
		{"cold records", "cold records", func(st *NetworkState) { st.cold = st.cold[:len(st.cold)-1] }},
		{"byzantine records", "byzantine records", func(st *NetworkState) { st.byz = st.byz[:len(st.byz)-1] }},
		{"byzantine records without arming", "byzantine records", func(st *NetworkState) { st.hasByz = false }},
	} {
		st := good
		tc.cut(&st)
		err := decode(&st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want one naming %q", tc.name, err, tc.want)
		}
	}

	// The in-memory state keeps only occupied ring slots, so the dense
	// slot section is cut short in the encoding itself: one slot fewer,
	// with its count patched to match.
	b := good.AppendBinary(nil)
	off := 13 + 4 + good.pool.slots*packetWireSize + 4 + 4*len(good.pool.gen) + 4 + 4*len(good.pool.free) + 3*8
	dense := binary.LittleEndian.Uint32(b[off:])
	if int(dense) != good.denseSlots() {
		t.Fatalf("slot count at offset %d reads %d, want %d", off, dense, good.denseSlots())
	}
	short := slices.Delete(slices.Clone(b), off+4, off+4+slotWireSize)
	binary.LittleEndian.PutUint32(short[off:], dense-1)
	var out NetworkState
	if err := out.DecodeBinary(wire.NewReader(short)); err == nil || !strings.Contains(err.Error(), "ring slots") {
		t.Errorf("ring slots: decode error %v, want one naming %q", err, "ring slots")
	}
}

// trafficNet is a 6×6 mesh with one dead router, packets buffered across
// the fabric and a few delivered packets recycled into the arena, so a
// snapshot holds live and free packets and occupied and empty ring slots.
func trafficNet(t *testing.T) *Network {
	t.Helper()
	topo := NewMesh(6, 6)
	n := NewNetwork(topo, DefaultConfig())
	sinks := make([]*collectSink, topo.Nodes())
	for id := range sinks {
		sinks[id] = &collectSink{}
		n.Router(NodeID(id)).SetSink(sinks[id])
	}
	n.Fail(topo.ID(Coord{3, 3}), 0)
	for i := 0; i < 30; i++ {
		s, d := NodeID(i%topo.Nodes()), NodeID(topo.Nodes()-1-i%topo.Nodes())
		p := n.Pool().Get()
		*p = Packet{ID: uint64(i + 1), Kind: Data, Src: s, Dst: d, Task: 1, Flits: 4, h: p.h}
		n.Inject(s, p, 0)
	}
	for now := sim.Tick(0); now < 12; now++ {
		n.Tick(now)
	}
	recycled := 0
	for _, s := range sinks {
		for _, p := range s.got {
			n.Pool().Put(p)
			recycled++
		}
		s.got = nil
	}
	if recycled == 0 || n.InFlight() == 0 {
		t.Fatalf("trafficNet: %d recycled, %d in flight; want both > 0", recycled, n.InFlight())
	}
	return n
}

// TestNetworkStateCompact checks what a snapshot keeps — only occupied
// slots and live packets — and that the dense encoding round-trips: the
// decoded state re-encodes to the same bytes, and restoring either the
// in-memory or the decoded state reproduces the source's snapshot.
func TestNetworkStateCompact(t *testing.T) {
	src := trafficNet(t)
	var st NetworkState
	src.SaveState(&st)
	if len(st.slots) != src.InFlight() {
		t.Fatalf("snapshot keeps %d ring slots, %d packets are in flight", len(st.slots), src.InFlight())
	}
	ps := src.Pool().Stats()
	if len(st.pool.live) != ps.Live || st.pool.slots != ps.Slots || ps.FreeListLen == 0 {
		t.Fatalf("snapshot keeps %d of %d arena packets; pool has %d live, %d free",
			len(st.pool.live), st.pool.slots, ps.Live, ps.FreeListLen)
	}
	b := st.AppendBinary(nil)
	if len(b) != st.EncodedLen() {
		t.Fatalf("EncodedLen = %d, encoding is %d bytes", st.EncodedLen(), len(b))
	}
	var dec NetworkState
	if err := dec.DecodeBinary(wire.NewReader(b)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.AppendBinary(nil), b) {
		t.Fatal("decoded state re-encodes to different bytes")
	}
	for name, state := range map[string]*NetworkState{"in-memory": &st, "decoded": &dec} {
		dst := NewNetwork(src.Topo, DefaultConfig())
		dst.LoadState(state)
		var again NetworkState
		dst.SaveState(&again)
		if !bytes.Equal(again.AppendBinary(nil), b) {
			t.Fatalf("%s: restored fabric snapshots differently from its source", name)
		}
	}
}

// TestNetworkStateDecodeRejectsRingHeadOutsideArena: compaction places
// occupied slots by the records' ring heads, so a head outside the slot
// section, or inside another router's rings, must be an error.
func TestNetworkStateDecodeRejectsRingHeadOutsideArena(t *testing.T) {
	n := NewNetwork(NewMesh(4, 4), DefaultConfig())
	var good NetworkState
	n.SaveState(&good)
	for name, head := range map[string]uint32{
		"past the slot section": uint32(good.denseSlots() + 3),
		"another router's ring": good.recs[0].rings[0].head,
	} {
		st := good
		st.recs = slices.Clone(good.recs)
		st.recs[5].rings[2].head = head
		var out NetworkState
		err := out.DecodeBinary(wire.NewReader(st.AppendBinary(nil)))
		if err == nil || !strings.Contains(err.Error(), "ring head") {
			t.Errorf("ring head %s: decode error %v, want one naming the ring head", name, err)
		}
	}
}

// TestNetworkStateDecodeRejectsFreeIndexOutsideArena: compaction rebuilds
// the free packets from the free list, so an index past the arena must be
// an error.
func TestNetworkStateDecodeRejectsFreeIndexOutsideArena(t *testing.T) {
	var st NetworkState
	trafficNet(t).SaveState(&st)
	st.pool.free = slices.Clone(st.pool.free)
	st.pool.free[0] = int32(st.pool.slots)
	var out NetworkState
	err := out.DecodeBinary(wire.NewReader(st.AppendBinary(nil)))
	if err == nil || !strings.Contains(err.Error(), "free-list index") {
		t.Fatalf("decode error %v, want one naming the free-list index", err)
	}
}

// TestLoadStateDropsStaleByzantine restores a never-armed state into a
// fabric whose byzantine routers were armed: the target must snapshot
// exactly like the source, with no byzantine records.
func TestLoadStateDropsStaleByzantine(t *testing.T) {
	topo := NewMesh(4, 4)
	var clean NetworkState
	NewNetwork(topo, DefaultConfig()).SaveState(&clean)
	dirty := NewNetwork(topo, DefaultConfig())
	dirty.SetByzantine(topo.ID(Coord{1, 1}), 1<<31, ByzDrop, 7)
	dirty.LoadState(&clean)
	var got NetworkState
	dirty.SaveState(&got)
	if !bytes.Equal(got.AppendBinary(nil), clean.AppendBinary(nil)) {
		t.Fatalf("restored fabric snapshots %d byzantine records, source none", len(got.byz))
	}
}

// TestCheckTopologyRejectsForeignRouters: a cmesh state whose second
// record names router 1, which is not a hub, still decodes (its records
// ascend and lie in the arena), so CheckTopology must reject it before
// LoadState would panic on it. A state for another node count is rejected
// too.
func TestCheckTopologyRejectsForeignRouters(t *testing.T) {
	var good NetworkState
	NewNetwork(NewCMesh(8, 4), DefaultConfig()).SaveState(&good)
	if err := good.CheckTopology(KindCMesh, 8, 4); err != nil {
		t.Fatalf("untouched state: %v", err)
	}
	if err := good.CheckTopology(KindCMesh, 8, 2); err == nil {
		t.Fatal("a 32-node state passed as an 8x2 cmesh")
	}
	st := good
	st.recs = slices.Clone(good.recs)
	for p := range st.recs[1].rings {
		st.recs[1].rings[p].head = uint32((int(NumPorts) + p) * st.spp)
	}
	var dec NetworkState
	if err := dec.DecodeBinary(wire.NewReader(st.AppendBinary(nil))); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := dec.CheckTopology(KindCMesh, 8, 4); err == nil || !strings.Contains(err.Error(), "router record 1") {
		t.Fatalf("record naming router 1: got %v, want a router record 1 error", err)
	}
}

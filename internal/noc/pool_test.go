package noc

import (
	"testing"
	"unsafe"

	"centurion/internal/sim"
)

func TestPacketPoolRecyclesZeroed(t *testing.T) {
	var pp PacketPool
	p := pp.Get()
	// Dirty every once-per-lifetime latch plus payload fields.
	p.ID = 42
	p.Kind = Config
	p.Hops = 7
	p.Retargets = 3
	p.requeues = 5
	p.Deadline = 1
	p.lapsedSeen = true
	p.Op = OpDisablePort
	pp.Put(p)

	q := pp.Get()
	if q != p {
		t.Fatalf("free list did not recycle the packet")
	}
	if want := (Packet{h: q.h}); *q != want {
		t.Errorf("recycled packet not zeroed: %+v", *q)
	}
	if !q.h.Valid() {
		t.Errorf("recycled packet carries no valid handle: %v", q.h)
	}
	if q.Lapsed(sim.Tick(10)) {
		t.Error("zeroed packet with no deadline reported a lapse")
	}

	st := pp.Stats()
	if st.Allocated != 1 || st.Recycled != 1 || st.Live != 1 || st.FreeListLen != 0 {
		t.Errorf("stats = %+v, want 1 allocated, 1 recycled, 1 live, empty free list", st)
	}
}

func TestPacketPoolDoubleRecyclePanics(t *testing.T) {
	var pp PacketPool
	p := pp.Get()
	pp.Put(p)
	defer func() {
		if recover() == nil {
			t.Error("double Put did not panic")
		}
	}()
	pp.Put(p)
}

func TestPacketPoolAdoptsForeignPackets(t *testing.T) {
	// Packets created outside the pool (tests, benches) may still be dropped
	// into a pooled fabric; Put adopts them.
	var pp PacketPool
	p := &Packet{ID: 9}
	pp.Put(p)
	if got := pp.Get(); got != p || got.ID != 0 {
		t.Errorf("foreign packet not adopted and zeroed: %+v", got)
	}
}

// TestPacketSize pins the packet layout: the byte-sized fields and the
// handle share one word, so arena and snapshot packets carry no padding.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 136 {
		t.Fatalf("Packet is %d bytes, want 136", got)
	}
}

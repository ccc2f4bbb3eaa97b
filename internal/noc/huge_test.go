package noc

// Huge-fabric mode: beyond hugeNodes the O(nodes²) fault-aware route tables
// are never built and every hop is computed on the fly, even under faults,
// which lifts the scale ceiling to 1024×1024.

import (
	"os"
	"testing"

	"centurion/internal/sim"
)

// meshNet builds a default-configured w×h mesh fabric.
func meshNet(t *testing.T, w, h int) *Network {
	t.Helper()
	topo, err := MakeTopology("mesh", w, h)
	if err != nil {
		t.Fatalf("MakeTopology(mesh, %d, %d): %v", w, h, err)
	}
	return NewNetwork(topo, DefaultConfig())
}

// TestHugeFabricLiveRouting covers the mega-fabric mode: beyond hugeNodes
// the O(nodes²) route tables are never built and every hop is computed on
// the fly, so a 128×128 fabric must deliver along exact dimension-order
// paths, treat faults without rerouting (blocked heads take the
// deadlock-recovery path), and answer Reachable optimistically.
func TestHugeFabricLiveRouting(t *testing.T) {
	n := meshNet(t, 128, 128)
	if !n.huge {
		t.Fatal("16384-node fabric did not enter huge mode")
	}
	if n.state[0].hop != nil {
		t.Fatal("huge fabric built per-router hop rows")
	}

	topo := n.Topo
	src, dst := topo.ID(Coord{0, 0}), topo.ID(Coord{127, 127})
	sink := &collectSink{}
	n.Router(dst).SetSink(sink)

	p := dataPacket(1, src, dst, 1, 2)
	var clk sim.Clock
	if !n.Inject(src, p, clk.Now()) {
		t.Fatal("Inject failed on empty fabric")
	}
	run(n, &clk, 600)
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(sink.got))
	}
	if want := topo.Distance(src, dst); p.Hops != want {
		t.Errorf("hops = %d, want Manhattan %d (live XY routing)", p.Hops, want)
	}

	// Fail a router on the XY path. Routes are never recomputed in huge
	// mode: the next packet heads straight into the dead router, blocks, and
	// the deadlock-recovery path ejects it.
	mid := topo.ID(Coord{64, 0})
	n.Fail(mid, clk.Now())
	if !n.Reachable(src, dst) {
		t.Error("huge-mode Reachable must stay optimistic under faults")
	}
	before := n.Stats().Dropped
	n.Inject(src, dataPacket(2, src, dst, 1, 2), clk.Now())
	run(n, &clk, 2000)
	if got := n.Stats().Dropped; got != before+1 {
		t.Errorf("dropped = %d, want %d (deadlock recovery must eject the blocked packet)", got, before+1)
	}
	if n.InFlight() != 0 {
		t.Errorf("InFlight = %d after ejection, want 0", n.InFlight())
	}
}

// TestMegaFabric256Smoke proves the 65k-node Table-I scale point assembles
// and carries traffic end to end.
func TestMegaFabric256Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("65k-node fabric build is slow under -short")
	}
	n := meshNet(t, 256, 256)
	if !n.huge {
		t.Fatal("65536-node fabric did not enter huge mode")
	}
	topo := n.Topo
	src, dst := topo.ID(Coord{0, 0}), topo.ID(Coord{255, 255})
	sink := &collectSink{}
	n.Router(dst).SetSink(sink)
	var clk sim.Clock
	n.Inject(src, dataPacket(1, src, dst, 1, 2), clk.Now())
	run(n, &clk, 1200)
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d packets across the 256×256 fabric, want 1", len(sink.got))
	}
}

// TestMegaFabric1024 exercises the full 2^20-node ceiling. The fabric's ring
// backing alone is >1 GiB, so the test only runs when explicitly requested.
func TestMegaFabric1024(t *testing.T) {
	if os.Getenv("CENTURION_MEGA") == "" {
		t.Skip("set CENTURION_MEGA=1 to build the 1,048,576-node fabric")
	}
	n := meshNet(t, 1024, 1024)
	if !n.huge {
		t.Fatal("1M-node fabric did not enter huge mode")
	}
	topo := n.Topo
	src, dst := topo.ID(Coord{0, 0}), topo.ID(Coord{1023, 0})
	sink := &collectSink{}
	n.Router(dst).SetSink(sink)
	var clk sim.Clock
	n.Inject(src, dataPacket(1, src, dst, 1, 1), clk.Now())
	run(n, &clk, 3000)
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d packets across the 1024×1024 fabric, want 1", len(sink.got))
	}
}

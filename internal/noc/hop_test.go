package noc

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"centurion/internal/sim"
	"centurion/internal/wire"
)

// TestHopSeparableMatchesBaseNextHop checks the on-the-fly dimension-order
// hop against the topology's own BaseNextHop for every (node, destination)
// pair: the per-axis tables are only correct if every topology's hop is
// separable (X decided by the columns alone, then Y by the rows alone).
func TestHopSeparableMatchesBaseNextHop(t *testing.T) {
	var topos []Topology
	for _, wh := range [][2]int{{2, 2}, {4, 2}, {6, 10}, {16, 8}, {32, 32}} {
		topos = append(topos, NewMesh(wh[0], wh[1]), NewTorus(wh[0], wh[1]), NewCMesh(wh[0], wh[1]))
	}
	topos = append(topos, NewMesh(1, 9), NewMesh(9, 1))
	for _, topo := range topos {
		n := NewNetwork(topo, DefaultConfig())
		for from := NodeID(0); int(from) < topo.Nodes(); from++ {
			if n.state[n.routers[from].ID].hop != nil {
				t.Fatalf("%v: healthy router %d has a bound hop row", topo, from)
			}
			for dst := NodeID(0); int(dst) < topo.Nodes(); dst++ {
				if got, want := n.NextHop(from, dst), topo.BaseNextHop(from, dst); got != want {
					t.Fatalf("%v: hop %d→%d = %v, BaseNextHop says %v", topo, from, dst, got, want)
				}
			}
		}
		for _, dst := range []NodeID{-1, NodeID(topo.Nodes())} {
			if got := n.hop(&n.state[0], int32(dst)); got != PortInvalid {
				t.Fatalf("%v: hop toward out-of-range %d = %v, want PortInvalid", topo, dst, got)
			}
		}
	}
}

// TestRouterStateSize pins the hot record's size: the router coordinates
// must stay in what was padding.
func TestRouterStateSize(t *testing.T) {
	if got := unsafe.Sizeof(routerState{}); got != 208 {
		t.Fatalf("routerState is %d bytes, want 208", got)
	}
}

// checkRows reports whether every router's hop row is nil (wantNil) or
// exactly its row of the live route tables, as the first routing read after
// a fault event sees them (Fail and Revive only mark the tables stale).
func checkRows(n *Network, wantNil bool) error {
	n.NextHop(0, 0)
	for _, r := range n.uniq {
		row := n.state[r.ID].hop
		if wantNil {
			if row != nil {
				return fmt.Errorf("router %d has a bound hop row, want nil", r.ID)
			}
			continue
		}
		want := n.tables.next[r.ID]
		if len(row) != len(want) || len(row) == 0 || &row[0] != &want[0] {
			return fmt.Errorf("router %d hop row is not a view of its route-table row", r.ID)
		}
	}
	return nil
}

// TestHopRowLifecycle covers when hop rows are bound: never on a healthy
// fabric, to views of the fault-aware tables once a router fails under
// RouteAuto, back to nil when the last fault heals or the fabric resets,
// and from construction under RouteTables.
func TestHopRowLifecycle(t *testing.T) {
	for _, kind := range []string{KindMesh, KindTorus, KindCMesh} {
		topo, err := MakeTopology(kind, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []RoutingMode{RouteAuto, RouteXY} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			if err := checkRows(NewNetwork(topo, cfg), true); err != nil {
				t.Fatalf("%v %v healthy: %v", topo, mode, err)
			}
		}

		n := NewNetwork(topo, DefaultConfig())
		a, b := topo.ID(Coord{2, 2}), topo.ID(Coord{4, 0})
		n.Fail(a, 0)
		n.Fail(b, 0)
		if n.tableBuilds != 0 || n.state[0].hop != nil {
			t.Fatalf("%v: Fail built %d tables and bound rows before any read", topo, n.tableBuilds)
		}
		if err := checkRows(n, false); err != nil {
			t.Fatalf("%v after Fail: %v", topo, err)
		}
		n.Revive(a, 0)
		if err := checkRows(n, false); err != nil {
			t.Fatalf("%v after one of two revivals: %v", topo, err)
		}
		n.Revive(b, 0)
		if err := checkRows(n, true); err != nil {
			t.Fatalf("%v after every router healed: %v", topo, err)
		}
		n.Fail(a, 0)
		n.Reset()
		if err := checkRows(n, true); err != nil {
			t.Fatalf("%v after Reset: %v", topo, err)
		}

		cfg := DefaultConfig()
		cfg.Mode = RouteTables
		n = NewNetwork(topo, cfg)
		if err := checkRows(n, false); err != nil {
			t.Fatalf("%v RouteTables at construction: %v", topo, err)
		}
		n.Reset()
		if err := checkRows(n, false); err != nil {
			t.Fatalf("%v RouteTables after Reset: %v", topo, err)
		}
	}
}

// TestLoadStateBindsRowsWithoutStirring restores a faulted fabric with
// parked routers from an in-memory and from a file-decoded state: the
// target must bind the same rows as the source (views of its own tables)
// and keep every parked router's quiet fast-forward, i.e. stir nothing.
func TestLoadStateBindsRowsWithoutStirring(t *testing.T) {
	topo := NewMesh(6, 6)
	src := NewNetwork(topo, DefaultConfig())
	for id := NodeID(0); int(id) < topo.Nodes(); id++ {
		src.Router(id).SetSink(&collectSink{})
	}
	var clk sim.Clock
	src.Fail(topo.ID(Coord{3, 3}), clk.Now())
	for i := 0; i < 12; i++ {
		s, d := NodeID(i), NodeID(topo.Nodes()-1-i)
		src.Inject(s, dataPacket(uint64(i+1), s, d, 1, 6), clk.Now())
	}
	parked := false
	for i := 0; i < 200 && !parked; i++ {
		src.Tick(clk.Now())
		clk.Step()
		for _, r := range src.uniq {
			if st := &src.state[r.ID]; st.queued > 0 && st.quiet > clk.Now() {
				parked = true
			}
		}
	}
	if !parked {
		t.Fatal("no router parked: the test needs a quiet fast-forward to detect a stir")
	}

	var st NetworkState
	src.SaveState(&st)
	var decoded NetworkState
	if err := decoded.DecodeBinary(wire.NewReader(st.AppendBinary(nil))); err != nil {
		t.Fatal(err)
	}
	for name, state := range map[string]*NetworkState{"in-memory": &st, "file-decoded": &decoded} {
		dst := NewNetwork(topo, DefaultConfig())
		dst.LoadState(state)
		if err := checkRows(dst, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range src.uniq {
			want, got := &src.state[r.ID], &dst.state[r.ID]
			if !slices.Equal(got.hop, want.hop) {
				t.Fatalf("%s: router %d hop row differs from the source's", name, r.ID)
			}
			if got.quiet != want.quiet || got.x != want.x || got.y != want.y {
				t.Fatalf("%s: router %d quiet/x/y = %d/%d/%d, source %d/%d/%d",
					name, r.ID, got.quiet, got.x, got.y, want.quiet, want.x, want.y)
			}
		}
		if dst.ActiveRouters() != src.ActiveRouters() {
			t.Fatalf("%s: %d active routers, source %d", name, dst.ActiveRouters(), src.ActiveRouters())
		}
	}
}

// TestNewNetworkHealthyMemory holds a healthy 64×64 fabric's construction
// to its rings and router records: no O(nodes²) routing structure (a
// 4096² table of any width is ≥16 MB).
func TestNewNetworkHealthyMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := NewNetwork(NewMesh(64, 64), DefaultConfig())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 16 {
		t.Fatalf("NewNetwork(64x64 mesh) allocated %.1f MB, want < 16 MB", mb)
	}
}

// TestReadAfterFailSeesNewTables: the tables are rebuilt lazily, so the
// first routing read right after a Fail or Revive — Reachable or NextHop,
// with no tick in between — must already see the new fault set.
func TestReadAfterFailSeesNewTables(t *testing.T) {
	topo := NewMesh(8, 8)
	n := NewNetwork(topo, DefaultConfig())
	left, right := topo.ID(Coord{0, 0}), topo.ID(Coord{7, 0})
	var wall []NodeID
	for y := 0; y < 8; y++ {
		wall = append(wall, topo.ID(Coord{4, y}))
	}
	for _, id := range wall {
		n.Fail(id, 0)
	}
	if n.Reachable(left, right) {
		t.Fatal("Reachable across a full dead column right after Fail")
	}
	if got := n.NextHop(left, right); got != PortInvalid {
		t.Fatalf("NextHop across a full dead column = %v, want PortInvalid", got)
	}
	builds := n.tableBuilds

	gap := wall[7]
	n.Revive(gap, 0)
	if !n.Reachable(left, right) {
		t.Fatal("Reachable through a revived gap = false right after Revive")
	}
	dead := map[NodeID]bool{}
	for _, id := range wall[:7] {
		dead[id] = true
	}
	want := referenceTables(topo, func(id NodeID) bool { return !dead[id] })
	for from := NodeID(0); int(from) < topo.Nodes(); from++ {
		if got := n.NextHop(from, right); got != want.NextHop(from, right) {
			t.Fatalf("NextHop %d→%d = %v after Revive, reference %v", from, right, got, want.NextHop(from, right))
		}
	}
	if n.tableBuilds != builds+1 {
		t.Fatalf("Revive and %d reads built %d tables, want 1", topo.Nodes()+1, n.tableBuilds-builds)
	}
}

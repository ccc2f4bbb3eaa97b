package noc

import (
	"testing"
	"testing/quick"
)

func TestXYRoutingProgress(t *testing.T) {
	topo := NewTopology(16, 8)
	src := topo.ID(Coord{2, 6})
	dst := topo.ID(Coord{13, 1})
	cur := src
	hops := 0
	for cur != dst {
		p := topo.BaseNextHop(cur, dst)
		nb, ok := topo.Neighbor(cur, p)
		if !ok {
			t.Fatalf("XY routed off-mesh at %v via %v", topo.Coord(cur), p)
		}
		cur = nb
		hops++
		if hops > 100 {
			t.Fatal("XY routing did not converge")
		}
	}
	if want := topo.Distance(src, dst); hops != want {
		t.Errorf("XY path length %d, want Manhattan %d", hops, want)
	}
}

func TestXYRoutesXFirst(t *testing.T) {
	topo := NewTopology(8, 8)
	from := topo.ID(Coord{2, 2})
	to := topo.ID(Coord{5, 5})
	if got := topo.BaseNextHop(from, to); got != East {
		t.Errorf("XY first hop = %v, want East (X before Y)", got)
	}
	sameCol := topo.ID(Coord{2, 5})
	if got := topo.BaseNextHop(from, sameCol); got != South {
		t.Errorf("XY same-column hop = %v, want South", got)
	}
	if got := topo.BaseNextHop(from, from); got != Local {
		t.Errorf("XY self hop = %v, want Local", got)
	}
}

// Property: the XY next hop always strictly reduces the Manhattan distance.
func TestXYMonotoneProperty(t *testing.T) {
	topo := NewTopology(16, 8)
	f := func(rs, rd uint16) bool {
		src := NodeID(int(rs) % topo.Nodes())
		dst := NodeID(int(rd) % topo.Nodes())
		if src == dst {
			return topo.BaseNextHop(src, dst) == Local
		}
		p := topo.BaseNextHop(src, dst)
		nb, ok := topo.Neighbor(src, p)
		return ok && topo.Distance(nb, dst) == topo.Distance(src, dst)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTablesMatchXYOnHealthyMesh(t *testing.T) {
	topo := NewTopology(16, 8)
	rt := computeTables(topo, func(NodeID) bool { return true })
	for src := NodeID(0); int(src) < topo.Nodes(); src++ {
		for dst := NodeID(0); int(dst) < topo.Nodes(); dst++ {
			got := rt.NextHop(src, dst)
			if src == dst {
				if got != Local {
					t.Fatalf("table self-hop at %d = %v", src, got)
				}
				continue
			}
			nb, ok := topo.Neighbor(src, got)
			if !ok {
				t.Fatalf("table routes %d->%d off mesh via %v", src, dst, got)
			}
			if topo.Distance(nb, dst) != topo.Distance(src, dst)-1 {
				t.Fatalf("table hop %d->%d via %v not on a shortest path", src, dst, got)
			}
		}
	}
}

func TestTablesRouteAroundFaults(t *testing.T) {
	topo := NewTopology(8, 8)
	// Kill a vertical wall with one gap at the bottom.
	dead := map[NodeID]bool{}
	for y := 0; y < 7; y++ {
		dead[topo.ID(Coord{4, y})] = true
	}
	rt := computeTables(topo, func(id NodeID) bool { return !dead[id] })
	src := topo.ID(Coord{0, 0})
	dst := topo.ID(Coord{7, 0})
	cur := src
	hops := 0
	for cur != dst {
		p := rt.NextHop(cur, dst)
		if p == PortInvalid {
			t.Fatalf("no route at %v despite gap", topo.Coord(cur))
		}
		nb, ok := topo.Neighbor(cur, p)
		if !ok || dead[nb] {
			t.Fatalf("routed into dead/off-mesh node at %v via %v", topo.Coord(cur), p)
		}
		cur = nb
		hops++
		if hops > 64 {
			t.Fatal("fault route did not converge")
		}
	}
	// Must detour through the gap at y=7: path ≥ 7 (down) + 7 (across) + 7 (up).
	if hops < 21 {
		t.Errorf("detour length %d suspiciously short", hops)
	}
}

func TestTablesUnreachable(t *testing.T) {
	topo := NewTopology(4, 4)
	// Cut the mesh into two halves with a full dead column.
	dead := map[NodeID]bool{}
	for y := 0; y < 4; y++ {
		dead[topo.ID(Coord{2, y})] = true
	}
	rt := computeTables(topo, func(id NodeID) bool { return !dead[id] })
	left := topo.ID(Coord{0, 0})
	right := topo.ID(Coord{3, 3})
	if got := rt.NextHop(left, right); got != PortInvalid {
		t.Errorf("NextHop across partition = %v, want PortInvalid", got)
	}
	if got := rt.NextHop(left, topo.ID(Coord{1, 3})); got == PortInvalid {
		t.Error("NextHop within the same partition unreachable")
	}
}

// Property: on a randomly damaged mesh, every table hop from an alive node
// either makes progress toward the destination along alive nodes, or the
// destination is genuinely unreachable (cross-checked with a fresh BFS).
func TestTablesSoundnessProperty(t *testing.T) {
	topo := NewTopology(8, 6)
	f := func(seed uint64, kills uint8) bool {
		rng := newTestRNG(seed)
		dead := map[NodeID]bool{}
		for i := 0; i < int(kills%20); i++ {
			dead[NodeID(rng.Intn(topo.Nodes()))] = true
		}
		alive := func(id NodeID) bool { return !dead[id] }
		rt := computeTables(topo, alive)
		// Check a handful of random pairs per damage pattern.
		for i := 0; i < 10; i++ {
			src := NodeID(rng.Intn(topo.Nodes()))
			dst := NodeID(rng.Intn(topo.Nodes()))
			if dead[src] || dead[dst] {
				continue
			}
			reach := bfsReachable(topo, alive, src, dst)
			hop := rt.NextHop(src, dst)
			if src == dst {
				if hop != Local {
					return false
				}
				continue
			}
			if !reach {
				if hop != PortInvalid {
					return false
				}
				continue
			}
			// Walk the tables to the destination; must terminate.
			cur, steps := src, 0
			for cur != dst {
				p := rt.NextHop(cur, dst)
				nb, ok := topo.Neighbor(cur, p)
				if p == PortInvalid || !ok || dead[nb] {
					return false
				}
				cur = nb
				steps++
				if steps > topo.Nodes() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func bfsReachable(topo Topology, alive func(NodeID) bool, src, dst NodeID) bool {
	seen := map[NodeID]bool{src: true}
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			return true
		}
		for p := North; p <= West; p++ {
			nb, ok := topo.Neighbor(cur, p)
			if ok && alive(nb) && !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return false
}

// newTestRNG avoids importing internal/sim into half the tests just for a
// generator; a tiny xorshift is enough here.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed | 1} }

func (r *testRNG) Intn(n int) int {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return int(r.s % uint64(n))
}

package noc

import (
	"fmt"
	"slices"
	"testing"
)

// computeTables builds the route tables of a topology whose routers are
// alive exactly where alive says, through the fabric's own kernel
// (Network.buildTables over a fresh network's link records).
func computeTables(topo Topology, alive func(NodeID) bool) *routeTables {
	n := NewNetwork(topo, DefaultConfig())
	for _, r := range n.uniq {
		n.state[r.ID].faulty = !alive(r.ID)
	}
	return n.buildTables()
}

// referenceTables is the original table builder, kept as the oracle for
// buildTables: a breadth-first search per destination through the
// Topology interface, with liveness from a callback.
func referenceTables(topo Topology, alive func(NodeID) bool) *routeTables {
	n := topo.Nodes()
	rt := &routeTables{next: make([][]int8, n)}
	for i := range rt.next {
		if topo.RouterOf(NodeID(i)) != NodeID(i) {
			continue
		}
		row := make([]int8, n)
		for j := range row {
			row[j] = int8(PortInvalid)
		}
		rt.next[i] = row
	}
	for i := range rt.next {
		if rt.next[i] == nil {
			rt.next[i] = rt.next[topo.RouterOf(NodeID(i))]
		}
	}

	pref := []Port{East, West, South, North}

	dist := make([]int, n)
	queue := make([]NodeID, 0, n)
	lastRouter := Invalid
	for dst := NodeID(0); int(dst) < n; dst++ {
		rdst := topo.RouterOf(dst)
		if !alive(rdst) {
			continue
		}
		if rdst != lastRouter {
			for i := range dist {
				dist[i] = -1
			}
			dist[rdst] = 0
			queue = queue[:0]
			queue = append(queue, rdst)
			for qi := 0; qi < len(queue); qi++ {
				cur := queue[qi]
				for _, p := range pref {
					nb, ok := topo.Neighbor(cur, p)
					if !ok || !alive(nb) || dist[nb] >= 0 {
						continue
					}
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
			lastRouter = rdst
		}
		for from := NodeID(0); int(from) < n; from++ {
			if topo.RouterOf(from) != from {
				continue
			}
			if from == rdst {
				rt.next[from][dst] = int8(Local)
				continue
			}
			if dist[from] < 0 || !alive(from) {
				continue
			}
			for _, p := range pref {
				nb, ok := topo.Neighbor(from, p)
				if ok && alive(nb) && dist[nb] == dist[from]-1 {
					rt.next[from][dst] = int8(p)
					break
				}
			}
		}
	}
	return rt
}

// oracleTopologies lists every fabric shape the oracle test covers (a
// torus needs both sides >= 2, a cmesh even sides).
func oracleTopologies() []Topology {
	var topos []Topology
	for _, wh := range [][2]int{{1, 9}, {9, 1}, {2, 2}, {8, 4}, {6, 10}, {16, 8}, {32, 32}} {
		w, h := wh[0], wh[1]
		topos = append(topos, NewMesh(w, h))
		if w >= 2 && h >= 2 {
			topos = append(topos, NewTorus(w, h))
		}
		if w%2 == 0 && h%2 == 0 {
			topos = append(topos, NewCMesh(w, h))
		}
	}
	return topos
}

// TestBuildTablesMatchesReference fails seeded random node sets through
// Network.Fail and checks that the lazily rebuilt tables equal the
// reference builder's row for row, on every shape, plus a fault set that
// cuts the fabric in two (a full dead column).
func TestBuildTablesMatchesReference(t *testing.T) {
	for _, topo := range oracleTopologies() {
		nodes := topo.Nodes()
		sets := map[string][]NodeID{}
		counts, seeds := []int{1, 3, max(nodes/8, 2), nodes / 3}, uint64(2)
		if nodes > 256 {
			// The reference takes ~0.2 s per build at 32×32.
			counts, seeds = []int{3, 40}, 1
		}
		for _, kills := range counts {
			for seed := uint64(1); seed <= seeds; seed++ {
				rng := newTestRNG(seed*104729 + uint64(kills))
				var set []NodeID
				for i := 0; i < kills && i < 40; i++ {
					set = append(set, NodeID(rng.Intn(nodes)))
				}
				sets[fmt.Sprintf("random-%d-seed%d", kills, seed)] = set
			}
		}
		if topo.Width() >= 3 {
			var wall []NodeID
			for y := 0; y < topo.Height(); y++ {
				wall = append(wall, topo.ID(Coord{X: topo.Width() / 2, Y: y}))
			}
			sets["partition"] = wall
		}
		for name, set := range sets {
			n := NewNetwork(topo, DefaultConfig())
			dead := map[NodeID]bool{}
			for _, id := range set {
				n.Fail(id, 0)
				dead[topo.RouterOf(id)] = true
			}
			n.NextHop(0, 0) // the first read rebuilds
			want := referenceTables(topo, func(id NodeID) bool { return !dead[id] })
			for id := 0; id < nodes; id++ {
				if !slices.Equal(n.tables.next[id], want.next[id]) {
					t.Fatalf("%v %s: row %d differs from the reference\n got %v\nwant %v",
						topo, name, id, n.tables.next[id], want.next[id])
				}
			}
		}
	}
}

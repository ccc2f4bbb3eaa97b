package noc

import (
	"fmt"
	"testing"
)

// TestTopologyAppendRingMatchesDistance checks AppendRing against brute
// force on every shape: for every (id, d), ring d holds exactly the nodes at
// Distance d from id, each once, and the rings past the farthest node (and
// d < 0) are empty. Odd and degenerate sides cover the clipping and wrap
// rules of each axis.
func TestTopologyAppendRingMatchesDistance(t *testing.T) {
	topos := []Topology{
		NewMesh(1, 1), NewMesh(1, 9), NewMesh(9, 1), NewMesh(5, 3), NewMesh(16, 8),
		NewTorus(2, 2), NewTorus(4, 2), NewTorus(5, 3), NewTorus(7, 7), NewTorus(16, 8),
		NewCMesh(2, 2), NewCMesh(6, 10), NewCMesh(16, 8),
	}
	for _, topo := range topos {
		t.Run(fmt.Sprintf("%s-%dx%d", topo.Kind(), topo.Width(), topo.Height()), func(t *testing.T) {
			n := topo.Nodes()
			var ring []NodeID
			for id := NodeID(0); int(id) < n; id++ {
				far := 0
				for j := NodeID(0); int(j) < n; j++ {
					far = max(far, topo.Distance(id, j))
				}
				if ring = topo.AppendRing(ring[:0], id, -1); len(ring) != 0 {
					t.Fatalf("ring(%d, -1) = %v, want empty", id, ring)
				}
				total := 0
				for d := 0; d <= far+2; d++ {
					ring = topo.AppendRing(ring[:0], id, d)
					seen := make([]bool, n)
					for _, j := range ring {
						if j < 0 || int(j) >= n {
							t.Fatalf("ring(%d, %d) holds out-of-range node %d", id, d, j)
						}
						if seen[j] {
							t.Fatalf("ring(%d, %d) holds node %d twice: %v", id, d, j, ring)
						}
						seen[j] = true
					}
					for j := NodeID(0); int(j) < n; j++ {
						if want := topo.Distance(id, j) == d; seen[j] != want {
							t.Fatalf("ring(%d, %d): node %d in ring = %v, Distance = %d", id, d, j, seen[j], topo.Distance(id, j))
						}
					}
					total += len(ring)
				}
				if total != n {
					t.Fatalf("rings around %d cover %d nodes, want %d", id, total, n)
				}
			}
		})
	}
}

package node

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

func dir4x4() *Directory {
	topo := noc.NewTopology(4, 4)
	m := make(taskgraph.Mapping, topo.Nodes())
	for i := range m {
		m[i] = taskgraph.TaskID(i%3 + 1)
	}
	return NewDirectory(topo, m)
}

func TestDirectoryBasics(t *testing.T) {
	d := dir4x4()
	if got := d.TaskOf(0); got != 1 {
		t.Errorf("TaskOf(0) = %d", got)
	}
	if got := d.Count(1); got != 6 {
		t.Errorf("Count(1) = %d, want 6", got)
	}
	counts := d.Counts(3)
	if counts[1]+counts[2]+counts[3] != 16 {
		t.Errorf("Counts = %v, want total 16", counts)
	}
}

func TestDirectorySetReindexes(t *testing.T) {
	d := dir4x4()
	d.Set(0, 2)
	if d.TaskOf(0) != 2 {
		t.Error("Set did not change task")
	}
	if d.Count(1) != 5 || d.Count(2) != 6 {
		t.Errorf("counts after Set: t1=%d t2=%d", d.Count(1), d.Count(2))
	}
}

func TestDirectoryNearest(t *testing.T) {
	topo := noc.NewTopology(4, 1)
	m := taskgraph.Mapping{1, 2, 2, 1}
	d := NewDirectory(topo, m)
	if got, ok := d.Nearest(2, 0); !ok || got != 1 {
		t.Errorf("Nearest(2, 0) = %d,%v, want 1", got, ok)
	}
	if got, ok := d.Nearest(1, 2); !ok || got != 3 {
		t.Errorf("Nearest(1, 2) = %d,%v, want 3", got, ok)
	}
	// Tie at equal distance: with owners at 0 and 2, both distance 1 from
	// node 1, the tie breaks toward the smaller ID.
	tie := NewDirectory(topo, taskgraph.Mapping{2, 1, 2, 1})
	if got, _ := tie.Nearest(2, 1); got != 0 {
		t.Errorf("tie-break Nearest = %d, want 0", got)
	}
	if _, ok := d.Nearest(9, 0); ok {
		t.Error("Nearest for unowned task reported ok")
	}
}

func TestDirectoryNearestSkipsDead(t *testing.T) {
	topo := noc.NewTopology(4, 1)
	d := NewDirectory(topo, taskgraph.Mapping{1, 2, 2, 1})
	d.SetAlive(1, false)
	if got, ok := d.Nearest(2, 0); !ok || got != 2 {
		t.Errorf("Nearest skipping dead = %d,%v, want 2", got, ok)
	}
	d.SetAlive(2, false)
	if _, ok := d.Nearest(2, 0); ok {
		t.Error("Nearest found a dead owner")
	}
	if d.Count(2) != 0 {
		t.Errorf("Count(2) = %d with all owners dead", d.Count(2))
	}
}

func TestDirectoryNearestK(t *testing.T) {
	topo := noc.NewTopology(8, 1)
	m := taskgraph.Mapping{2, 2, 1, 2, 2, 2, 1, 2}
	d := NewDirectory(topo, m)
	got := d.NearestK(2, 2, 3)
	if len(got) != 3 {
		t.Fatalf("NearestK returned %v", got)
	}
	// From node 2, nearest task-2 owners are 1 and 3 (distance 1), then 0
	// and 4 (distance 2, tie-break smaller ID first).
	if got[0] != 1 || got[1] != 3 || got[2] != 0 {
		t.Errorf("NearestK = %v, want [1 3 0]", got)
	}
	// Asking for more owners than exist returns all of them.
	all := d.NearestK(1, 0, 10)
	if len(all) != 2 {
		t.Errorf("NearestK(1) = %v, want 2 owners", all)
	}
}

// The Nearest/NearestK lookups must stay coherent across directory
// mutations: an answer from before a Set/SetAlive would steer packets at
// stale owners.
func TestDirectoryNearestCacheInvalidation(t *testing.T) {
	topo := noc.NewTopology(4, 1)
	d := NewDirectory(topo, taskgraph.Mapping{1, 2, 2, 1})

	// Prime the caches.
	if got, _ := d.Nearest(2, 0); got != 1 {
		t.Fatalf("Nearest(2,0) = %d, want 1", got)
	}
	if got := d.NearestK(2, 0, 2); len(got) != 2 || got[0] != 1 {
		t.Fatalf("NearestK(2,0,2) = %v, want [1 2]", got)
	}
	if _, ok := d.Nearest(3, 0); ok {
		t.Fatal("Nearest found owner for unmapped task")
	}

	// Mutate: node 1 leaves task 2, node 0 joins task 3.
	d.Set(1, 3)
	if got, _ := d.Nearest(2, 0); got != 2 {
		t.Errorf("Nearest(2,0) after Set = %d, want 2 (stale cache?)", got)
	}
	if got := d.NearestK(2, 0, 2); len(got) != 1 || got[0] != 2 {
		t.Errorf("NearestK(2,0,2) after Set = %v, want [2]", got)
	}
	if got, ok := d.Nearest(3, 0); !ok || got != 1 {
		t.Errorf("Nearest(3,0) after Set = %d,%v, want 1 (negative result cached?)", got, ok)
	}

	// Death must invalidate too.
	d.SetAlive(2, false)
	if _, ok := d.Nearest(2, 0); ok {
		t.Error("Nearest returned a dead owner after SetAlive")
	}

	// Repeated lookups without mutations keep answering consistently.
	for i := 0; i < 3; i++ {
		if got, ok := d.Nearest(3, 3); !ok || got != 1 {
			t.Fatalf("stable lookup %d = %d,%v, want 1", i, got, ok)
		}
	}
}

func TestDirectoryOwnersSorted(t *testing.T) {
	d := dir4x4()
	d.Set(15, 1)
	d.Set(0, 2)
	owners := d.Owners(1)
	for i := 1; i < len(owners); i++ {
		if owners[i-1] >= owners[i] {
			t.Fatalf("owners not sorted: %v", owners)
		}
	}
}

func TestDirectoryMappingSnapshot(t *testing.T) {
	d := dir4x4()
	m := d.Mapping()
	m[0] = 9
	if d.TaskOf(0) == 9 {
		t.Error("Mapping snapshot shares storage")
	}
}

// Property: Nearest always returns an owner at minimal distance among alive
// owners.
func TestNearestMinimalProperty(t *testing.T) {
	topo := noc.NewTopology(8, 4)
	f := func(seed uint64, fromRaw uint16) bool {
		rng := sim.NewRNG(seed)
		m := make(taskgraph.Mapping, topo.Nodes())
		for i := range m {
			m[i] = taskgraph.TaskID(rng.Intn(3) + 1)
		}
		d := NewDirectory(topo, m)
		// Kill a few random nodes.
		for i := 0; i < 5; i++ {
			d.SetAlive(noc.NodeID(rng.Intn(topo.Nodes())), false)
		}
		from := noc.NodeID(int(fromRaw) % topo.Nodes())
		for task := taskgraph.TaskID(1); task <= 3; task++ {
			got, ok := d.Nearest(task, from)
			best := 1 << 30
			for id := noc.NodeID(0); int(id) < topo.Nodes(); id++ {
				if d.Alive(id) && d.TaskOf(id) == task {
					if dd := topo.Distance(from, id); dd < best {
						best = dd
					}
				}
			}
			if (best == 1<<30) != !ok {
				return false
			}
			if ok && topo.Distance(from, got) != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Satellite audit (ISSUE 4): equidistance ties must resolve identically —
// toward the smaller node ID — on every topology, for both Nearest and
// NearestK. Wrap-around links (torus) and shared routers (cmesh) make exact
// ties far more common than on the mesh, so a non-deterministic tie-break
// would silently destroy run reproducibility there.
func TestNearestTieBreakAcrossTopologies(t *testing.T) {
	cases := []struct {
		name  string
		topo  noc.Topology
		from  noc.NodeID
		owner []noc.NodeID // equidistant owners of task 2, ascending
	}{
		// Mesh: owners symmetric around the query node on a row.
		{"mesh", noc.NewTopology(8, 2), 3, []noc.NodeID{1, 5}},
		// Torus: one owner two steps East, one two steps West around the
		// wrap (node 14 is at (6,0): distance to (0,0) is 2 both ways).
		{"torus", noc.NewTorus(8, 2), 0, []noc.NodeID{2, 6}},
		// CMesh: two owners in the same cluster are both at distance 0.
		{"cmesh", noc.NewCMesh(8, 2), 0, []noc.NodeID{1, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := make(taskgraph.Mapping, tc.topo.Nodes())
			for i := range m {
				m[i] = 1
			}
			for _, id := range tc.owner {
				m[id] = 2
			}
			d := NewDirectory(tc.topo, m)
			da := tc.topo.Distance(tc.from, tc.owner[0])
			db := tc.topo.Distance(tc.from, tc.owner[1])
			if da != db {
				t.Fatalf("test premise broken: owners at distances %d and %d", da, db)
			}
			// Nearest picks the smaller ID, however often it is asked and in
			// whatever cache state.
			for i := 0; i < 3; i++ {
				if got, ok := d.Nearest(2, tc.from); !ok || got != tc.owner[0] {
					t.Fatalf("Nearest tie = %d,%v, want %d", got, ok, tc.owner[0])
				}
			}
			// NearestK orders the tie the same way.
			got := d.NearestK(2, tc.from, 2)
			if len(got) != 2 || got[0] != tc.owner[0] || got[1] != tc.owner[1] {
				t.Fatalf("NearestK tie order = %v, want %v", got, tc.owner)
			}
			// The order survives an unrelated mutation (cache flush + refill).
			d.Set(tc.from, 3)
			if got, _ := d.Nearest(2, tc.from); got != tc.owner[0] {
				t.Fatalf("Nearest tie after mutation = %d, want %d", got, tc.owner[0])
			}
		})
	}
}

// Nearest and NearestK must agree on their first choice for every topology —
// packet retargeting uses Nearest while fork spreading uses NearestK, and a
// disagreement would make them converge on different owners.
func TestNearestAgreesWithNearestK(t *testing.T) {
	for _, topo := range []noc.Topology{
		noc.NewTopology(8, 4), noc.NewTorus(8, 4), noc.NewCMesh(8, 4),
	} {
		rng := sim.NewRNG(42)
		m := make(taskgraph.Mapping, topo.Nodes())
		for i := range m {
			m[i] = taskgraph.TaskID(rng.Intn(3) + 1)
		}
		d := NewDirectory(topo, m)
		for from := noc.NodeID(0); int(from) < topo.Nodes(); from++ {
			for task := taskgraph.TaskID(1); task <= 3; task++ {
				near, ok := d.Nearest(task, from)
				k := d.NearestK(task, from, 1)
				if !ok {
					if len(k) != 0 {
						t.Fatalf("%s: NearestK found owners Nearest missed", topo)
					}
					continue
				}
				if len(k) != 1 || k[0] != near {
					t.Fatalf("%s: Nearest=%d but NearestK[0]=%v (task %d from %d)", topo, near, k, task, from)
				}
			}
		}
	}
}

// bruteNearest is the reference answer for NearestK: every alive owner of
// task sorted by (distance from from, ID), cut to k.
func bruteNearest(d *Directory, topo noc.Topology, task taskgraph.TaskID, from noc.NodeID, k int) []noc.NodeID {
	var out []noc.NodeID
	for id := noc.NodeID(0); int(id) < topo.Nodes(); id++ {
		if d.Alive(id) && d.TaskOf(id) == task {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := topo.Distance(from, out[i]), topo.Distance(from, out[j])
		return di < dj || (di == dj && out[i] < out[j])
	})
	return out[:min(k, len(out))]
}

// Task roles in the randomized directory test: 1–3 are common, sparseTask
// has one or two owners (the owner-scan path), deadTask's owners are all
// dead, and noTask is never mapped.
const (
	sparseTask taskgraph.TaskID = 4
	deadTask   taskgraph.TaskID = 5
	noTask     taskgraph.TaskID = 6
)

// randomDirMapping maps most nodes to tasks 1–3, one or two to sparseTask
// and two to deadTask (killed by the caller).
func randomDirMapping(rng *sim.RNG, n int) taskgraph.Mapping {
	m := make(taskgraph.Mapping, n)
	for i := range m {
		m[i] = taskgraph.TaskID(rng.Intn(3) + 1)
	}
	perm := rng.Perm(n)
	m[perm[0]], m[perm[1]], m[perm[2]] = deadTask, deadTask, sparseTask
	if rng.Intn(2) == 0 {
		m[perm[3]] = sparseTask
	}
	return m
}

// killDeadTask marks every deadTask owner dead.
func killDeadTask(d *Directory) {
	for id := range d.taskOf {
		if d.taskOf[id] == deadTask {
			d.SetAlive(noc.NodeID(id), false)
		}
	}
}

// Property: under random Set/SetAlive/Reset/LoadState sequences, Nearest and
// NearestK answer exactly the brute-force (distance, ID) order on every
// topology — whether the search stops in a distance ring or falls back to
// scanning a sparse task's owners, and when no alive owner exists.
func TestDirectoryNearestMatchesBruteForce(t *testing.T) {
	for _, topo := range []noc.Topology{noc.NewMesh(12, 10), noc.NewTorus(9, 7), noc.NewCMesh(12, 10)} {
		t.Run(topo.Kind(), func(t *testing.T) {
			rng := sim.NewRNG(7)
			n := topo.Nodes()
			d := NewDirectory(topo, randomDirMapping(rng, n))
			killDeadTask(d)
			var saved DirectoryState
			d.SaveState(&saved)
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					id := noc.NodeID(rng.Intn(n))
					task := taskgraph.TaskID(rng.Intn(3) + 1)
					if d.TaskOf(id) == deadTask {
						break // keep deadTask's owners
					}
					if rng.Intn(8) == 0 && d.Count(sparseTask) < 2 {
						task = sparseTask
					}
					d.Set(id, task)
				case op < 8:
					id := noc.NodeID(rng.Intn(n))
					if d.TaskOf(id) != deadTask {
						d.SetAlive(id, !d.Alive(id))
					}
				case op < 9:
					d.SaveState(&saved)
					d.Reset(randomDirMapping(rng, n))
					killDeadTask(d)
				default:
					d.LoadState(&saved)
				}
				for q := 0; q < 6; q++ {
					from := noc.NodeID(rng.Intn(n))
					for task := taskgraph.TaskID(1); task <= noTask; task++ {
						all := bruteNearest(d, topo, task, from, 12)
						got, ok := d.Nearest(task, from)
						if ok != (len(all) > 0) || (ok && got != all[0]) {
							t.Fatalf("step %d: Nearest(%d, %d) = %d,%v, want %v", step, task, from, got, ok, all[:min(1, len(all))])
						}
						for k := 1; k <= 12; k++ {
							want := all[:min(k, len(all))]
							if got := d.NearestK(task, from, k); !slices.Equal(got, want) {
								t.Fatalf("step %d: NearestK(%d, %d, %d) = %v, want %v", step, task, from, k, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// Nearest and NearestK reuse the directory's scratch, so once it has grown
// to the largest answer a lookup allocates nothing — on both the ring
// search and the owner-scan path.
func TestNearestAllocFree(t *testing.T) {
	for _, topo := range []noc.Topology{noc.NewMesh(16, 8), noc.NewTorus(16, 8), noc.NewCMesh(16, 8)} {
		rng := sim.NewRNG(3)
		d := NewDirectory(topo, randomDirMapping(rng, topo.Nodes()))
		killDeadTask(d)
		query := func() {
			for from := noc.NodeID(0); int(from) < topo.Nodes(); from++ {
				for task := taskgraph.TaskID(1); task <= noTask; task++ {
					d.Nearest(task, from)
					d.NearestK(task, from, 12)
				}
			}
		}
		query() // warm-up: grow the scratch
		if allocs := testing.AllocsPerRun(10, query); allocs != 0 {
			t.Errorf("%s: a lookup sweep allocates %.1f objects", topo, allocs)
		}
	}
}

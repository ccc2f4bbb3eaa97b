// Package node models the Centurion processing elements (the MicroBlaze
// nodes of the real platform): task execution with per-task latencies,
// bounded receive queues, source-task generation timers, fork/join instance
// bookkeeping, and the task directory that maps task classes to the nodes
// currently running them.
package node

import (
	"centurion/internal/noc"
	"centurion/internal/taskgraph"
)

// Directory tracks which task every node currently runs and answers
// nearest-owner queries. It is the simulator's stand-in for the task-ID
// addressing of the real platform, where packets are steered toward nodes
// advertising a task (router settings updated through RCAP when a node's
// AIM switches its task).
type Directory struct {
	topo   noc.Topology
	taskOf []taskgraph.TaskID
	alive  []bool
	byTask map[taskgraph.TaskID][]noc.NodeID

	// Scratch of NearestK, reused across calls: ring holds the distance
	// ring being searched, cands the owner-scan entries, and out the
	// result handed back to the caller.
	ring  []noc.NodeID
	cands []ownerCand
	out   []noc.NodeID
}

// ownerCand is NearestK's owner-scan scratch entry.
type ownerCand struct {
	id   noc.NodeID
	dist int
}

// NewDirectory builds a directory from an initial mapping.
func NewDirectory(topo noc.Topology, m taskgraph.Mapping) *Directory {
	if len(m) != topo.Nodes() {
		panic("node: mapping size does not match topology")
	}
	d := &Directory{
		topo:   topo,
		taskOf: make([]taskgraph.TaskID, len(m)),
		alive:  make([]bool, len(m)),
		byTask: make(map[taskgraph.TaskID][]noc.NodeID),
	}
	for i, task := range m {
		d.taskOf[i] = task
		d.alive[i] = true
		d.byTask[task] = append(d.byTask[task], noc.NodeID(i))
	}
	return d
}

// Reset rebuilds the directory in place from a fresh mapping: every node
// comes back alive running its mapped task. The per-task owner lists retain
// their capacity.
func (d *Directory) Reset(m taskgraph.Mapping) {
	if len(m) != len(d.taskOf) {
		panic("node: reset mapping size does not match directory")
	}
	for task, owners := range d.byTask {
		d.byTask[task] = owners[:0]
	}
	for i, task := range m {
		d.taskOf[i] = task
		d.alive[i] = true
		// Node IDs ascend, so the owner lists come out sorted as insertID
		// would keep them.
		d.byTask[task] = append(d.byTask[task], noc.NodeID(i))
	}
}

// TaskOf returns the task the node currently runs.
func (d *Directory) TaskOf(id noc.NodeID) taskgraph.TaskID { return d.taskOf[id] }

// Alive reports whether the node is alive.
func (d *Directory) Alive(id noc.NodeID) bool { return d.alive[id] }

// Set changes the node's task and reindexes.
func (d *Directory) Set(id noc.NodeID, task taskgraph.TaskID) {
	old := d.taskOf[id]
	if old == task {
		return
	}
	d.taskOf[id] = task
	d.byTask[old] = removeID(d.byTask[old], id)
	d.byTask[task] = insertID(d.byTask[task], id)
}

// SetAlive marks a node alive or dead; dead nodes are excluded from
// nearest-owner queries.
func (d *Directory) SetAlive(id noc.NodeID, alive bool) { d.alive[id] = alive }

// Count returns how many alive nodes run the task.
func (d *Directory) Count(task taskgraph.TaskID) int {
	n := 0
	for _, id := range d.byTask[task] {
		if d.alive[id] {
			n++
		}
	}
	return n
}

// Counts returns alive node counts indexed by task ID (0..maxID).
func (d *Directory) Counts(maxID taskgraph.TaskID) []int {
	out := make([]int, int(maxID)+1)
	for i, task := range d.taskOf {
		if d.alive[i] && int(task) < len(out) {
			out[task]++
		}
	}
	return out
}

// Nearest returns the alive node running task that is closest (by topology
// distance) to from, breaking ties toward the smaller node ID. The tie-break
// is what keeps results deterministic across topologies: wrap-around links
// (torus) and shared routers (cmesh) make exact-distance ties common. ok is
// false when no alive node runs the task. It is NearestK with k = 1.
func (d *Directory) Nearest(task taskgraph.TaskID, from noc.NodeID) (noc.NodeID, bool) {
	if out := d.NearestK(task, from, 1); len(out) > 0 {
		return out[0], true
	}
	return noc.Invalid, false
}

// NearestK returns up to k distinct alive owners of task ordered by
// topology distance from from, ties toward smaller IDs. Used by fork nodes
// to spread parallel branches over nearby workers. The returned slice is the
// directory's scratch: it is valid until the next NearestK or Nearest call
// and must not be mutated.
//
// The search walks outward from from in rings of equal distance
// (Topology.AppendRing), collecting each ring's alive owners in ID order,
// and stops after the first ring that brings the count to k — the local
// search a router performs toward the nearest node advertising a task. Once
// it has visited more nodes than the task has owners, scanning the owner
// list is cheaper, so it switches to that; either way a query costs at most
// about min(nodes near from, owners of task).
func (d *Directory) NearestK(task taskgraph.TaskID, from noc.NodeID, k int) []noc.NodeID {
	owners := d.byTask[task]
	out := d.out[:0]
	if k <= 0 || len(owners) == 0 {
		return out
	}
	visited := 0
	for r := 0; visited < len(d.taskOf); r++ {
		if visited > len(owners) {
			out = d.scanOwners(out[:0], owners, from, k)
			break
		}
		d.ring = d.topo.AppendRing(d.ring[:0], from, r)
		visited += len(d.ring)
		start := len(out)
		for _, id := range d.ring {
			if d.taskOf[id] == task && d.alive[id] {
				// Insertion sort: a ring holds few owners.
				out = append(out, id)
				for i := len(out) - 1; i > start && out[i] < out[i-1]; i-- {
					out[i], out[i-1] = out[i-1], out[i]
				}
			}
		}
		if len(out) >= k {
			out = out[:k]
			break
		}
	}
	d.out = out
	return out
}

// scanOwners is NearestK by scanning every owner of the task: it appends to
// out the k nearest alive owners by (distance, ID), picked by a selection
// sort of the first k (k is the fork fan-out, tiny).
func (d *Directory) scanOwners(out, owners []noc.NodeID, from noc.NodeID, k int) []noc.NodeID {
	cands := d.cands[:0]
	for _, id := range owners {
		if d.alive[id] {
			cands = append(cands, ownerCand{id, d.topo.Distance(from, id)})
		}
	}
	d.cands = cands
	k = min(k, len(cands))
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].dist < cands[best].dist ||
				(cands[j].dist == cands[best].dist && cands[j].id < cands[best].id) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
		out = append(out, cands[i].id)
	}
	return out
}

// Owners returns the alive owners of a task (ascending IDs). The slice is
// freshly allocated.
func (d *Directory) Owners(task taskgraph.TaskID) []noc.NodeID {
	var out []noc.NodeID
	for _, id := range d.byTask[task] {
		if d.alive[id] {
			out = append(out, id)
		}
	}
	return out
}

// Mapping snapshots the current node→task assignment.
func (d *Directory) Mapping() taskgraph.Mapping {
	m := make(taskgraph.Mapping, len(d.taskOf))
	copy(m, d.taskOf)
	return m
}

func removeID(s []noc.NodeID, id noc.NodeID) []noc.NodeID {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// insertID keeps the per-task owner lists sorted so that iteration order —
// and therefore tie-breaking — is deterministic.
func insertID(s []noc.NodeID, id noc.NodeID) []noc.NodeID {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = id
	return s
}

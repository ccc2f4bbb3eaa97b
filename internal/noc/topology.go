// Package noc implements the Centurion network-on-chip fabric: a grid of
// five-port wormhole routers with per-link flit serialisation, a Router
// Configuration Access Port (RCAP) for remote reconfiguration, a basic
// deadlock-recovery mechanism, and the monitor/knob taps that the embedded
// intelligence modules (package aim) observe and actuate.
//
// The fabric is a deterministic tick-level model: Network.Tick advances every
// router by one cycle. It reproduces the observable behaviour the paper's
// runtime-management models depend on — which task IDs flow through each
// router, which packets are accepted locally, and how congestion and faults
// reshape that traffic — without modelling FPGA electrical detail.
//
// The fabric shape is pluggable through the Topology interface: Mesh is the
// paper's Centurion-V6 reference, Torus adds wrap-around links, and CMesh is
// a concentrated mesh where a 2×2 cluster of processing elements shares one
// router. Everything above this file (routing tables, thermal conduction,
// task-directory distances, fault regions) works in terms of Topology.
package noc

import "fmt"

// NodeID identifies a node (processing element plus its — possibly shared —
// router) in the fabric, computed as y*W + x over the node grid.
type NodeID int

// Invalid is the NodeID of "no node".
const Invalid NodeID = -1

// Coord is a node-grid coordinate. X grows eastward, Y grows southward.
type Coord struct{ X, Y int }

// Manhattan returns the Manhattan distance to another coordinate.
func (c Coord) Manhattan(o Coord) int {
	dx, dy := c.X-o.X, c.Y-o.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// String renders the coordinate as "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Port is one of a router's five channels. The four cardinal ports connect
// to fabric neighbours; Local connects to the node's processing element.
// (The RCAP configuration channel is modelled as config-kind packets
// delivered through the regular ports, as on the real router where RCAP
// traffic shares the NoC.)
type Port int

// Router ports in round-robin service order.
const (
	North Port = iota
	East
	South
	West
	Local
	NumPorts // number of ports; not a valid port value

	// PortInvalid marks "no route".
	PortInvalid Port = -1
)

// String names the port for traces.
func (p Port) String() string {
	switch p {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	case Local:
		return "L"
	case PortInvalid:
		return "-"
	}
	return fmt.Sprintf("Port(%d)", int(p))
}

// Opposite returns the port a packet leaving via p arrives on at the
// neighbouring router.
func (p Port) Opposite() Port {
	// The cardinal ports are laid out N,E,S,W, so the opposite direction is
	// two steps around the compass — a branch-free xor on the hot forward
	// path. Local (and any invalid port) maps to itself, as before.
	if p >= North && p <= West {
		return p ^ 2
	}
	return p
}

// Topology describes a fabric shape: which nodes exist, how their routers
// are linked, how far apart they are, and how the healthy fabric routes.
// Implementations are immutable once built and therefore race-safe to share
// across platforms.
//
// Every topology here lays its nodes out on a Width()×Height() grid (the
// physical die floorplan), so ID/Coord/InBounds always operate on that grid
// even when the link structure is not a plain mesh.
type Topology interface {
	// Kind is the canonical shape name ("mesh", "torus", "cmesh") used as
	// the pool/cache identity axis.
	Kind() string
	// Width and Height are the node-grid dimensions.
	Width() int
	Height() int
	// Nodes returns the node count Width()*Height().
	Nodes() int
	// ID maps a grid coordinate to its NodeID. It panics when out of bounds.
	ID(c Coord) NodeID
	// Coord maps a NodeID back to its grid coordinate. It panics when out of
	// range.
	Coord(id NodeID) Coord
	// InBounds reports whether the coordinate lies inside the node grid.
	InBounds(c Coord) bool
	// Neighbor returns the router adjacent to id's router through the given
	// cardinal port — the fabric's link graph. ok is false at fabric edges,
	// for the Local port, and for nodes that do not own a router (CMesh
	// cluster members other than the hub).
	Neighbor(id NodeID, p Port) (NodeID, bool)
	// Lateral returns the physically adjacent node in the given direction —
	// the die-floorplan adjacency used for thermal conduction and
	// neighbour-signal broadcast. For Mesh and Torus it equals Neighbor; for
	// CMesh it is plain grid adjacency (cluster members are physically next
	// to each other even though they share a router).
	Lateral(id NodeID, p Port) (NodeID, bool)
	// Distance returns the hop distance between the two nodes' routers on
	// the healthy fabric (0 for nodes sharing a router).
	Distance(a, b NodeID) int
	// RouterOf returns the node whose router serves id: id itself except in
	// concentrated fabrics, where cluster members map to their hub.
	RouterOf(id NodeID) NodeID
	// BaseNextHop returns the healthy-fabric dimension-ordered next hop from
	// id's router toward dst (Local when both share a router). It must be
	// deadlock-free in the routing sense: per destination, following hops
	// strictly decreases Distance, so the next-hop graph is cycle-free. It
	// must also be separable: the X decision depends only on the two
	// columns, and when it is Local the Y decision depends only on the two
	// rows — the network tabulates it per axis, never per node pair.
	BaseNextHop(from, dst NodeID) Port
	// String renders the canonical shape, e.g. "16x8 mesh".
	String() string
}

// Topology kind names accepted by MakeTopology (and the spec/CLI layers).
const (
	KindMesh  = "mesh"
	KindTorus = "torus"
	KindCMesh = "cmesh"
)

// MakeTopology builds a topology by kind name ("" defaults to mesh) over a
// w×h node grid.
func MakeTopology(kind string, w, h int) (Topology, error) {
	switch kind {
	case "", KindMesh:
		if w <= 0 || h <= 0 {
			return nil, fmt.Errorf("noc: invalid mesh %dx%d", w, h)
		}
		return NewMesh(w, h), nil
	case KindTorus:
		if w < 2 || h < 2 {
			return nil, fmt.Errorf("noc: torus needs both dimensions >= 2, got %dx%d", w, h)
		}
		return NewTorus(w, h), nil
	case KindCMesh:
		if w < 2 || h < 2 || w%2 != 0 || h%2 != 0 {
			return nil, fmt.Errorf("noc: cmesh needs even dimensions >= 2, got %dx%d", w, h)
		}
		return NewCMesh(w, h), nil
	}
	return nil, fmt.Errorf("noc: unknown topology %q (want mesh, torus or cmesh)", kind)
}

// grid is the shared node-grid layout embedded by every topology: the
// ID/Coord mapping over a w×h floorplan with memoized coordinates so the
// routing and directory hot paths avoid a div/mod pair per lookup.
type grid struct {
	w, h int
	// coords memoizes NodeID→Coord; built once by newGrid, shared read-only.
	coords []Coord
}

func newGrid(w, h int) grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: invalid topology %dx%d", w, h))
	}
	g := grid{w: w, h: h, coords: make([]Coord, w*h)}
	for id := range g.coords {
		g.coords[id] = Coord{X: id % w, Y: id / w}
	}
	return g
}

// Width returns the node-grid width.
func (g grid) Width() int { return g.w }

// Height returns the node-grid height.
func (g grid) Height() int { return g.h }

// Nodes returns the node count w*h.
func (g grid) Nodes() int { return g.w * g.h }

// ID maps a coordinate to its NodeID. It panics when out of bounds.
func (g grid) ID(c Coord) NodeID {
	if !g.InBounds(c) {
		panic(fmt.Sprintf("noc: coordinate %v outside %dx%d grid", c, g.w, g.h))
	}
	return NodeID(c.Y*g.w + c.X)
}

// Coord maps a NodeID back to its coordinate.
func (g grid) Coord(id NodeID) Coord {
	if id < 0 || int(id) >= g.Nodes() {
		panic(fmt.Sprintf("noc: node %d outside %dx%d grid", id, g.w, g.h))
	}
	return g.coords[id]
}

// InBounds reports whether the coordinate lies inside the grid.
func (g grid) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < g.w && c.Y >= 0 && c.Y < g.h
}

// gridNeighbor is plain (non-wrapping) grid adjacency.
func (g grid) gridNeighbor(id NodeID, p Port) (NodeID, bool) {
	c := g.Coord(id)
	switch p {
	case North:
		c.Y--
	case South:
		c.Y++
	case East:
		c.X++
	case West:
		c.X--
	default:
		return Invalid, false
	}
	if !g.InBounds(c) {
		return Invalid, false
	}
	return g.ID(c), true
}

// Mesh is the paper's fabric: a W×H rectangular mesh with one router per
// node and XY dimension-order routing. It is the bit-for-bit reference
// topology every equivalence test anchors on.
type Mesh struct{ grid }

// NewMesh returns a w×h mesh. It panics on non-positive dimensions.
func NewMesh(w, h int) Mesh { return Mesh{newGrid(w, h)} }

// NewTopology returns a w×h mesh as a Topology — the historical constructor,
// kept because the mesh is the default shape throughout the platform.
func NewTopology(w, h int) Topology { return NewMesh(w, h) }

// Kind implements Topology.
func (Mesh) Kind() string { return KindMesh }

// Neighbor implements Topology: plain grid adjacency with hard edges.
func (m Mesh) Neighbor(id NodeID, p Port) (NodeID, bool) { return m.gridNeighbor(id, p) }

// Lateral implements Topology: physical adjacency equals the link graph.
func (m Mesh) Lateral(id NodeID, p Port) (NodeID, bool) { return m.gridNeighbor(id, p) }

// Distance implements Topology: the Manhattan metric.
func (m Mesh) Distance(a, b NodeID) int {
	return m.Coord(a).Manhattan(m.Coord(b))
}

// RouterOf implements Topology: every node owns its router.
func (Mesh) RouterOf(id NodeID) NodeID { return id }

// BaseNextHop implements Topology: classic XY dimension-order routing —
// correct X first, then Y. Deadlock-free on a fault-free mesh.
func (m Mesh) BaseNextHop(from, dst NodeID) Port {
	fc, dc := m.Coord(from), m.Coord(dst)
	switch {
	case dc.X > fc.X:
		return East
	case dc.X < fc.X:
		return West
	case dc.Y > fc.Y:
		return South
	case dc.Y < fc.Y:
		return North
	default:
		return Local
	}
}

// String renders the topology dimensions.
func (m Mesh) String() string { return fmt.Sprintf("%dx%d mesh", m.w, m.h) }

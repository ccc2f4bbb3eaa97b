package noc

// RoutingMode selects how routers compute next hops.
type RoutingMode int

const (
	// RouteAuto uses the topology's dimension-order routing while the fabric
	// is healthy and switches to fault-aware shortest-path tables once a
	// router fails (a stand-in for the platform's route-discovery around dead
	// nodes; see DESIGN.md §2).
	RouteAuto RoutingMode = iota
	// RouteXY always uses dimension-order routing, even across faults
	// (packets heading into a dead router are recovered/dropped) — the
	// ablation case.
	RouteXY
	// RouteTables always uses the shortest-path tables.
	RouteTables
)

// String names the routing mode.
func (m RoutingMode) String() string {
	switch m {
	case RouteAuto:
		return "auto"
	case RouteXY:
		return "xy"
	case RouteTables:
		return "tables"
	}
	return "unknown"
}

// routeTables holds per-destination next-hop ports for every router,
// computed by breadth-first search over the alive subgraph.
type routeTables struct {
	// next[from][dst] is the output port at from's router toward dst
	// (PortInvalid when unreachable, Local when both share a router),
	// narrowed to one byte per destination: routers bind their row as
	// their hop row directly (Network.bindRows). Hub rows are consecutive
	// windows of one backing array; on concentrated fabrics the members'
	// rows alias their hub's.
	next [][]int8
}

// bfsPref is the port preference for tie-breaking among equal-distance
// neighbours: XY habit (horizontal first), so table routes coincide with
// dimension-order routing on the healthy fabric, keeping the ablation
// comparison clean.
var bfsPref = [...]Port{East, West, South, North}

// buildTables computes the fault-aware shortest-path next hops from the
// fabric's own link records (routerState.nbr and .faulty): one
// breadth-first search from each live destination router over live
// routers. Every router the search reaches takes the first preferred port
// whose neighbour is one hop closer; routers it does not reach keep
// PortInvalid. Nodes sharing a router (concentrated fabrics) have
// byte-identical rows — the Local condition and every hop depend only on
// the serving router — so only hub rows are filled and members alias them.
// Each build allocates fresh tables: snapshots share the previous ones by
// reference, so they are never edited in place.
func (n *Network) buildTables() *routeTables {
	n.tableBuilds++
	nodes := n.nodes
	rt := &routeTables{next: make([][]int8, nodes)}
	back := make([]int8, len(n.uniq)*nodes)
	for i := range back {
		back[i] = int8(PortInvalid)
	}
	for i, r := range n.uniq {
		rt.next[r.ID] = back[i*nodes : (i+1)*nodes : (i+1)*nodes]
	}
	for id := range rt.next {
		if rt.next[id] == nil {
			rt.next[id] = rt.next[n.routers[id].ID]
		}
	}

	// adj lists each router's live neighbours in preference order (-1 = no
	// live link), so the searches touch no router record.
	adj := make([]int32, len(bfsPref)*nodes)
	for i := range adj {
		adj[i] = -1
	}
	for _, r := range n.uniq {
		st := &n.state[r.ID]
		if st.faulty {
			continue
		}
		for k, p := range bfsPref {
			if nb := st.nbr[p]; nb >= 0 && !n.state[nb].faulty {
				adj[len(bfsPref)*int(r.ID)+k] = nb
			}
		}
	}

	// dist is the hop distance to the current destination router (-1 =
	// not reached), hop the reached routers' next hop toward it; queue
	// lists the reached routers in search order.
	dist := make([]int32, nodes)
	for i := range dist {
		dist[i] = -1
	}
	hop := make([]int8, nodes)
	queue := make([]int32, 0, len(n.uniq))
	// Consecutive destinations often share a router (cluster members along
	// a grid row); they reuse the previous search.
	last := int32(-1)
	for dst := 0; dst < nodes; dst++ {
		rdst := int32(n.routers[dst].ID)
		if n.state[rdst].faulty {
			continue
		}
		if rdst != last {
			for _, id := range queue {
				dist[id] = -1
			}
			queue = append(queue[:0], rdst)
			dist[rdst] = 0
			hop[rdst] = int8(Local)
			for qi := 0; qi < len(queue); qi++ {
				// By the time a router is dequeued every router one hop
				// closer has its final distance, so one pass over its
				// links both extends the search and picks its hop.
				cur := queue[qi]
				d := dist[cur]
				found := qi == 0
				for k, nb := range adj[len(bfsPref)*int(cur) : len(bfsPref)*int(cur)+len(bfsPref)] {
					if nb < 0 {
						continue
					}
					if dn := dist[nb]; dn < 0 {
						dist[nb] = d + 1
						queue = append(queue, nb)
					} else if !found && dn == d-1 {
						hop[cur] = int8(bfsPref[k])
						found = true
					}
				}
			}
			last = rdst
		}
		for _, cur := range queue {
			rt.next[cur][dst] = hop[cur]
		}
	}
	return rt
}

// NextHop returns the table's next hop, or PortInvalid when unreachable.
func (rt *routeTables) NextHop(from, dst NodeID) Port {
	return Port(rt.next[from][dst])
}

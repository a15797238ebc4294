// Package roadnet provides a street-network routing substrate for the
// market framework. The paper estimates inter-task travel distances from
// trip trajectories; straight-line distance understates urban driving
// distance by the network's circuity (~1.2–1.4× in practice). This
// package supplies weighted road graphs, shortest-path routing
// (Dijkstra and contraction hierarchies), synthetic city-network generators, and a cached
// Router that plugs into model.Market.Dist so every cost and travel-time
// estimate in the framework can be network-accurate instead of
// crow-fly.
package roadnet

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/geo"
)

// halfEdge is one directed adjacency entry.
type halfEdge struct {
	to int32
	km float64
}

// Graph is a directed weighted road network embedded in the plane.
// Nodes carry geographic positions; edge weights are kilometers. The
// zero value is an empty graph ready for AddNode/AddEdge.
type Graph struct {
	pts []geo.Point
	adj [][]halfEdge

	edgeCount int
}

// NumNodes returns the node count; NumEdges the directed edge count.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// Point returns the position of node id.
func (g *Graph) Point(id int) geo.Point { return g.pts[id] }

// AddNode appends a node at p and returns its id.
func (g *Graph) AddNode(p geo.Point) int {
	g.pts = append(g.pts, p)
	g.adj = append(g.adj, nil)
	return len(g.pts) - 1
}

// AddEdge inserts the directed edge u→v with the given length. A
// non-positive or non-finite length, or an out-of-range endpoint,
// panics: edges come from generators, not user input.
func (g *Graph) AddEdge(u, v int, km float64) {
	if u < 0 || u >= len(g.pts) || v < 0 || v >= len(g.pts) {
		panic(fmt.Sprintf("roadnet: edge (%d,%d) out of range [0,%d)", u, v, len(g.pts)))
	}
	if km <= 0 || math.IsNaN(km) || math.IsInf(km, 0) {
		panic(fmt.Sprintf("roadnet: bad edge length %g", km))
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: int32(v), km: km})
	g.edgeCount++
}

// AddRoad inserts the two-way road u↔v with length equal to the
// straight-line distance between the endpoints scaled by factor.
func (g *Graph) AddRoad(u, v int, factor float64) {
	km := geo.Equirectangular(g.pts[u], g.pts[v]) * factor
	if km <= 0 {
		km = 1e-6 // coincident nodes: keep the metric positive
	}
	g.AddEdge(u, v, km)
	g.AddEdge(v, u, km)
}

// pqItem / pq implement the Dijkstra priority queue.
type pqItem struct {
	node int32
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPath runs Dijkstra from src to dst and returns the distance
// in kilometers and the node sequence. It returns +Inf and nil when dst
// is unreachable. It is the reference every routing kernel is tested
// against.
func (g *Graph) ShortestPath(src, dst int) (float64, []int) {
	if src < 0 || src >= len(g.pts) || dst < 0 || dst >= len(g.pts) {
		panic(fmt.Sprintf("roadnet: route (%d,%d) out of range [0,%d)", src, dst, len(g.pts)))
	}
	n := len(g.pts)
	dist := make([]float64, n)
	prev := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0

	q := pq{{node: int32(src)}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if int(u) == dst {
			break
		}
		for _, e := range g.adj[u] {
			if done[e.to] {
				continue
			}
			if nd := dist[u] + e.km; nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = u
				heap.Push(&q, pqItem{node: e.to, dist: nd})
			}
		}
	}

	if math.IsInf(dist[dst], 1) {
		return math.Inf(1), nil
	}
	var path []int
	for v := int32(dst); v != -1; v = prev[v] {
		path = append(path, int(v))
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return dist[dst], path
}

// StronglyConnected reports whether every node reaches every other.
// Two BFS-style sweeps (forward from 0, and forward on the transpose)
// suffice.
func (g *Graph) StronglyConnected() bool {
	n := len(g.pts)
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	reach := func(adj [][]halfEdge) int {
		for i := range seen {
			seen[i] = false
		}
		stack := []int32{0}
		seen[0] = true
		count := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			count++
			for _, e := range adj[u] {
				if !seen[e.to] {
					seen[e.to] = true
					stack = append(stack, e.to)
				}
			}
		}
		return count
	}
	if reach(g.adj) != n {
		return false
	}
	// Transpose adjacency.
	tr := make([][]halfEdge, n)
	for u := range g.adj {
		for _, e := range g.adj[u] {
			tr[e.to] = append(tr[e.to], halfEdge{to: int32(u), km: e.km})
		}
	}
	return reach(tr) == n
}

package roadnet

import (
	"math"
	"testing"

	"repro/internal/geo"
)

// chTestGraphs yields a spread of generated cities: grids across seeds
// and removal fractions, and a radial town.
func chTestGraphs(t *testing.T, visit func(name string, g *Graph, cfg GridConfig)) {
	t.Helper()
	for seed := int64(1); seed <= 6; seed++ {
		cfg := DefaultGridConfig()
		cfg.Rows, cfg.Cols = 12, 14
		cfg.Seed = seed
		cfg.RemoveFrac = 0.05 * float64(seed%4)
		g, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		visit("grid", g, cfg)
	}
	g, err := GenerateRadial(geo.PortoBox.Center(), 5, 9, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	visit("radial", g, DefaultGridConfig())
}

// TestCHBitwiseEqualsDijkstra is the routing kernel's bitwise wall:
// over random grids and a radial city, every Hierarchy.Query must
// return exactly Dijkstra's float — not approximately, bitwise. Every
// dispatch-level network-metric identity rests on it.
func TestCHBitwiseEqualsDijkstra(t *testing.T) {
	pairs := 0
	chTestGraphs(t, func(name string, g *Graph, _ GridConfig) {
		h := BuildHierarchy(g)
		if !h.labeled() {
			t.Fatalf("%s: hub labels missing on a %d-node graph", name, g.NumNodes())
		}
		n := g.NumNodes()
		for u := 0; u < n; u += 3 {
			for v := 0; v < n; v += 5 {
				d0, _ := g.ShortestPath(u, v)
				d1 := h.Query(u, v)
				if d0 != d1 && !(math.IsInf(d0, 1) && math.IsInf(d1, 1)) {
					t.Fatalf("%s: CH Query(%d,%d) = %v, Dijkstra = %v (delta %g)",
						name, u, v, d1, d0, d1-d0)
				}
				pairs++
			}
		}
	})
	if pairs < 1000 {
		t.Fatalf("bitwise sweep covered only %d pairs", pairs)
	}
}

// TestCHSearchKernelBitwise pins the live-search kernels — the
// point-to-point bidirectional search and the exhaustive-plus-probe
// batch pair — directly against Dijkstra. On graphs over
// chLabelMaxNodes nodes these ARE the production query paths, but
// Query/DistMany take the hub-label route on test-sized graphs, so the
// fallbacks get their own bitwise wall here.
func TestCHSearchKernelBitwise(t *testing.T) {
	chTestGraphs(t, func(name string, g *Graph, _ GridConfig) {
		h := BuildHierarchy(g)
		sc := h.scratch()
		defer h.pool.Put(sc)
		n := g.NumNodes()
		for u := 0; u < n; u += 7 {
			for v := 0; v < n; v += 5 {
				if u == v {
					continue
				}
				d0, _ := g.ShortestPath(u, v)
				inf := math.IsInf(d0, 1)
				if d1 := h.queryPTP(sc, int32(u), int32(v)); d1 != d0 && !(inf && math.IsInf(d1, 1)) {
					t.Fatalf("%s: queryPTP(%d,%d) = %v, Dijkstra = %v", name, u, v, d1, d0)
				}
				// queryPTP burned the epochs; restore the shared forward
				// search exactly as a Router batch would hold it.
				h.forward(sc, int32(u))
				fwdEp := sc.epF
				if d2 := h.probeBackward(sc, int32(v)); d2 != d0 && !(inf && math.IsInf(d2, 1)) {
					t.Fatalf("%s: forward+probeBackward(%d,%d) = %v, Dijkstra = %v", name, u, v, d2, d0)
				}
				if sc.epF != fwdEp {
					t.Fatalf("%s: probeBackward disturbed the shared forward search", name)
				}
				h.backward(sc, int32(v))
				if d3 := h.probeForward(sc, int32(u)); d3 != d0 && !(inf && math.IsInf(d3, 1)) {
					t.Fatalf("%s: backward+probeForward(%d,%d) = %v, Dijkstra = %v", name, u, v, d3, d0)
				}
			}
		}
	})
}

// TestHierarchyShortcutsUnpack checks the shortcut tree round-trip
// directly: every shortcut arc must expand to a chain of original edges
// that starts at arc.from, ends at arc.to, walks real graph edges, and
// whose path-order fold reproduces a plain walk's accumulation.
func TestHierarchyShortcutsUnpack(t *testing.T) {
	g, err := GenerateGrid(DefaultGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := BuildHierarchy(g)
	if h.NumShortcuts() == 0 {
		t.Fatal("default grid contracted with zero shortcuts; unpacking untested")
	}
	edgeKm := func(u, v int32) (float64, bool) {
		for _, e := range g.adj[u] {
			if e.to == v {
				return e.km, true
			}
		}
		return 0, false
	}
	sc := h.scratch()
	defer h.pool.Put(sc)
	checked := 0
	for i := range h.arcs {
		a := &h.arcs[i]
		if a.left < 0 {
			continue // original edge
		}
		// Expand to leaves with the production fold, then re-walk the
		// same expansion collecting endpoints to validate the chain.
		var leaves []int32
		stack := []int32{int32(i)}
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			arc := &h.arcs[top]
			if arc.left < 0 {
				leaves = append(leaves, top)
			} else {
				stack = append(stack, arc.right, arc.left)
			}
		}
		at := a.from
		sum := 0.0
		for _, li := range leaves {
			leaf := &h.arcs[li]
			if leaf.from != at {
				t.Fatalf("arc %d: unpacked chain breaks at node %d (leaf starts at %d)", i, at, leaf.from)
			}
			km, ok := edgeKm(leaf.from, leaf.to)
			if !ok {
				t.Fatalf("arc %d: leaf %d→%d is not an original graph edge", i, leaf.from, leaf.to)
			}
			if km != leaf.km {
				t.Fatalf("arc %d: leaf %d→%d weight %v != graph edge %v", i, leaf.from, leaf.to, leaf.km, km)
			}
			sum += km
			at = leaf.to
		}
		if at != a.to {
			t.Fatalf("arc %d: unpacked chain ends at %d, want %d", i, at, a.to)
		}
		if got := h.foldArc(sc, int32(i), 0); got != sum {
			t.Fatalf("arc %d: foldArc = %v, leaf-order fold = %v", i, got, sum)
		}
		checked++
	}
	if checked != h.NumShortcuts() {
		t.Fatalf("checked %d shortcut arcs, hierarchy reports %d", checked, h.NumShortcuts())
	}
}

// TestHierarchyDeterminism builds the same graph twice and demands
// identical hierarchies: same ranks, same arcs in the same order. The
// ordering heap breaks ties on node id precisely to make this hold.
func TestHierarchyDeterminism(t *testing.T) {
	chTestGraphs(t, func(name string, g *Graph, _ GridConfig) {
		h1 := BuildHierarchy(g)
		h2 := BuildHierarchy(g)
		if len(h1.arcs) != len(h2.arcs) {
			t.Fatalf("%s: arc counts differ: %d vs %d", name, len(h1.arcs), len(h2.arcs))
		}
		for i := range h1.arcs {
			if h1.arcs[i] != h2.arcs[i] {
				t.Fatalf("%s: arc %d differs: %+v vs %+v", name, i, h1.arcs[i], h2.arcs[i])
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			if h1.Rank(v) != h2.Rank(v) {
				t.Fatalf("%s: rank(%d) differs: %d vs %d", name, v, h1.Rank(v), h2.Rank(v))
			}
		}
	})
}

// routerTestPoints returns a deterministic scatter of off-graph points
// inside the box (they exercise snapping and access legs too).
func routerTestPoints(box geo.BoundingBox, n int, salt int64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		fx := float64((int64(i)*2654435761 + salt*97) % 1000)
		fy := float64((int64(i)*40503 + salt*31 + 7) % 1000)
		pts[i] = geo.Point{
			Lat: box.MinLat + (box.MaxLat-box.MinLat)*fx/1000,
			Lon: box.MinLon + (box.MaxLon-box.MinLon)*fy/1000,
		}
	}
	return pts
}

// TestDistManyMatchesLoopedDist pins the one-to-many contract: both
// batch shapes must be bitwise equal to their per-pair loops and to the
// Dijkstra-composed distance, with and without the hub-label tier,
// including repeated targets (cache path) and the shared endpoint
// itself.
func TestDistManyMatchesLoopedDist(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 12, 14
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"ch", "ch-nolabels"} {
		r := NewRouter(g, cfg.Box, 8)
		if mode == "ch-nolabels" {
			// Strip the hub-label tier so the batch path runs the
			// large-graph search kernels end to end through the Router.
			r.ch.labOffF, r.ch.labOffB, r.ch.labF, r.ch.labB = nil, nil, nil, nil
		}
		pts := routerTestPoints(cfg.Box, 24, 3)
		pts = append(pts, pts[4], pts[0]) // duplicates: cached on second sight
		origin := geo.Point{Lat: cfg.Box.MinLat + 0.7*(cfg.Box.MaxLat-cfg.Box.MinLat),
			Lon: cfg.Box.MinLon + 0.3*(cfg.Box.MaxLon-cfg.Box.MinLon)}
		pts = append(pts, origin)

		got := r.DistMany(origin, pts)
		for i, p := range pts {
			if want := r.Dist(origin, p); got[i] != want {
				t.Fatalf("%s: DistMany[%d] = %v, Dist = %v", mode, i, got[i], want)
			}
			if want := dijkstraDist(g, origin, p); got[i] != want {
				t.Fatalf("%s: DistMany[%d] = %v, Dijkstra = %v", mode, i, got[i], want)
			}
		}
		gotTo := r.DistManyTo(pts, origin)
		for i, p := range pts {
			if want := r.Dist(p, origin); gotTo[i] != want {
				t.Fatalf("%s: DistManyTo[%d] = %v, Dist = %v", mode, i, gotTo[i], want)
			}
			if want := dijkstraDist(g, p, origin); gotTo[i] != want {
				t.Fatalf("%s: DistManyTo[%d] = %v, Dijkstra = %v", mode, i, gotTo[i], want)
			}
		}
	}
}

// TestDistManyCacheAccounting demands the batch path's cache stats stay
// indistinguishable from looped Dist: one miss per unique node pair,
// hits for the rest, and a second batch serving entirely from cache.
func TestDistManyCacheAccounting(t *testing.T) {
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 8)
	pts := routerTestPoints(cfg.Box, 16, 9)
	origin := pts[0]
	targets := pts[1:]

	r.DistMany(origin, targets)
	hits1, misses1, _ := r.CacheStats()
	if misses1 == 0 {
		t.Fatal("first batch routed nothing")
	}

	r.ResetCacheStats()
	r.DistMany(origin, targets)
	hits2, misses2, _ := r.CacheStats()
	if misses2 != 0 {
		t.Fatalf("second identical batch recomputed %d routes", misses2)
	}
	if hits2 != hits1+misses1 {
		t.Fatalf("second batch hits = %d, want %d (one per routed pair)", hits2, hits1+misses1)
	}
}

// TestRouterAlgoBitwiseIdentity runs the router built through
// NewRouterAlgo over every test city and a point scatter: each Dist
// must equal the Dijkstra-composed distance bitwise.
func TestRouterAlgoBitwiseIdentity(t *testing.T) {
	chTestGraphs(t, func(name string, g *Graph, cfg GridConfig) {
		r := NewRouterAlgo(g, cfg.Box, 8, AlgoCH)
		pts := routerTestPoints(cfg.Box, 20, 5)
		for i, a := range pts {
			for j, b := range pts {
				if got, want := r.Dist(a, b), dijkstraDist(g, a, b); got != want {
					t.Fatalf("%s: Dist(%d,%d) = %v, Dijkstra %v", name, i, j, got, want)
				}
			}
		}
	})
}

// TestRouterResetCacheStats covers the bench-leg hygiene helper: stats
// drop to zero, cached routes survive.
func TestRouterResetCacheStats(t *testing.T) {
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 8)
	pts := routerTestPoints(cfg.Box, 6, 1)
	for _, p := range pts[1:] {
		r.Dist(pts[0], p)
	}
	if _, m, _ := r.CacheStats(); m == 0 {
		t.Fatal("warmup produced no misses")
	}
	size := r.CacheSize()
	r.ResetCacheStats()
	if h, m, e := r.CacheStats(); h != 0 || m != 0 || e != 0 {
		t.Fatalf("stats after reset = %d/%d/%d, want zeros", h, m, e)
	}
	if r.CacheSize() != size {
		t.Fatalf("reset dropped cached routes: %d -> %d", size, r.CacheSize())
	}
	for _, p := range pts[1:] {
		r.Dist(pts[0], p)
	}
	if h, m, _ := r.CacheStats(); m != 0 || h == 0 {
		t.Fatalf("post-reset rerun: hits %d misses %d, want pure hits", h, m)
	}
}

func BenchmarkCHBuild(b *testing.B) {
	g, _ := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildHierarchy(g)
	}
}

func BenchmarkCHQuery(b *testing.B) {
	g, _ := benchGraph(b)
	h := BuildHierarchy(g)
	n := g.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := (i * 7919) % n
		v := (i*104729 + 13) % n
		h.Query(u, v)
	}
}

// BenchmarkCHQueryPTP times the bidirectional search kernel alone (the
// large-graph fallback; BenchmarkCHQuery times the hub-label path the
// default grid actually uses).
func BenchmarkCHQueryPTP(b *testing.B) {
	g, _ := benchGraph(b)
	h := BuildHierarchy(g)
	sc := h.scratch()
	defer h.pool.Put(sc)
	n := g.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := (i * 7919) % n
		v := (i*104729 + 13) % n
		if u != v {
			h.queryPTP(sc, int32(u), int32(v))
		}
	}
}

func BenchmarkDistManyCH(b *testing.B) {
	g, cfg := benchGraph(b)
	r := NewRouter(g, cfg.Box, 10)
	r.SetCacheBound(1) // defeat memoization: measure the kernel
	pts := routerTestPoints(cfg.Box, 16, 2)
	out := make([]float64, len(pts)-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.DistManyInto(pts[0], pts[1:], out)
	}
}

func BenchmarkDistLoopedCH(b *testing.B) {
	g, cfg := benchGraph(b)
	r := NewRouter(g, cfg.Box, 10)
	r.SetCacheBound(1)
	pts := routerTestPoints(cfg.Box, 16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts[1:] {
			r.Dist(pts[0], p)
		}
	}
}

package roadnet

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
)

// bruteNearest is the ground truth for NearestNode: a full scan.
func bruteNearest(g *Graph, p geo.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for id := 0; id < g.NumNodes(); id++ {
		if d := geo.Equirectangular(p, g.Point(id)); d < bestD {
			best, bestD = id, d
		}
	}
	return best, bestD
}

// TestNearestNodeRegression reconstructs the exact layout the old
// implementation got wrong: the query's cell and Moore neighborhood are
// not all empty (so the full-scan fallback never fired) but the true
// nearest intersection lies two rings out.
func TestNearestNodeRegression(t *testing.T) {
	box := geo.PortoBox
	grid := geo.NewGrid(box, 10, 10)
	p := grid.CellCenter(5*10 + 5)

	g := &Graph{}
	// Decoy in the Moore neighborhood: far corner of cell (6,6).
	decoy := g.AddNode(box.Lerp(6.95/10, 6.95/10))
	// True nearest: near edge of cell (5,7), outside the Moore ring.
	want := g.AddNode(box.Lerp(5.5/10, 7.02/10))

	r := NewRouter(g, box, 10)
	got := r.NearestNode(p)
	bf, _ := bruteNearest(g, p)
	if bf != want {
		t.Fatalf("layout broken: brute force picked %d, want %d", bf, want)
	}
	if got != want {
		t.Fatalf("NearestNode = %d (decoy=%d), want %d: expanding ring must look past a populated Moore neighborhood", got, decoy, want)
	}
}

// TestNearestNodeDifferential compares NearestNode against brute force
// over random graphs: clustered node layouts (which leave most cells
// empty, the regime the old code got wrong) probed with uniform query
// points, including points outside the box. The node id must match,
// not just the distance: ties go to the lowest id, as in bruteNearest.
func TestNearestNodeDifferential(t *testing.T) {
	box := geo.PortoBox
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &Graph{}
		clusters := 1 + rng.Intn(4)
		nodes := 5 + rng.Intn(60)
		centers := make([]geo.Point, clusters)
		for i := range centers {
			centers[i] = box.Lerp(rng.Float64(), rng.Float64())
		}
		for i := 0; i < nodes; i++ {
			c := centers[rng.Intn(clusters)]
			g.AddNode(box.Clamp(geo.Point{
				Lat: c.Lat + (rng.Float64()-0.5)*0.01,
				Lon: c.Lon + (rng.Float64()-0.5)*0.01,
			}))
		}
		r := NewRouter(g, box, 8+rng.Intn(16))
		for q := 0; q < 200; q++ {
			p := box.Lerp(rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1)
			checkNearest(t, r, g, p)
		}
	}
}

// checkNearest fails the test unless NearestNode(p) is bruteNearest's
// node id.
func checkNearest(t *testing.T, r *Router, g *Graph, p geo.Point) {
	t.Helper()
	want, wantD := bruteNearest(g, p)
	if got := r.NearestNode(p); got != want {
		gotD := math.Inf(1)
		if got >= 0 {
			gotD = geo.Equirectangular(p, g.Point(got))
		}
		t.Fatalf("NearestNode(%v) = %d at %.9f km, brute force %d at %.9f km", p, got, gotD, want, wantD)
	}
}

// TestNearestNodeAdversarial probes the places a per-cell snap index
// can get wrong: points on cell boundaries and on the box's max-lat and
// max-lon edges (which CellOf clamps into the last row or column),
// points just outside the box and far outside it, nodes sharing
// coordinates, exact ties, one-node graphs, and the default city graph
// under the default grid size.
func TestNearestNodeAdversarial(t *testing.T) {
	box := geo.PortoBox
	edges := func(s int) []geo.Point {
		var pts []geo.Point
		for i := 0; i <= s; i++ {
			for j := 0; j <= s; j++ {
				pts = append(pts, box.Lerp(float64(i)/float64(s), float64(j)/float64(s)))
			}
			f := float64(i) / float64(s)
			pts = append(pts,
				geo.Point{Lat: box.MaxLat, Lon: box.Lerp(0, f).Lon},
				geo.Point{Lat: box.Lerp(f, 0).Lat, Lon: box.MaxLon},
				geo.Point{Lat: math.Nextafter(box.MaxLat, math.Inf(1)), Lon: box.Lerp(0, f).Lon},
				geo.Point{Lat: box.Lerp(f, 0).Lat, Lon: math.Nextafter(box.MinLon, math.Inf(-1))},
				box.Lerp(-0.5, f), box.Lerp(f, 1.7), box.Lerp(2, -1))
		}
		return pts
	}

	t.Run("cell-edges", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 10; trial++ {
			g := &Graph{}
			s := 4 + rng.Intn(12)
			// Nodes on grid lines too, so boundary queries meet
			// boundary nodes.
			for i := 0; i < 40; i++ {
				fLat, fLon := rng.Float64(), rng.Float64()
				if i%3 == 0 {
					fLat = float64(rng.Intn(s+1)) / float64(s)
				}
				g.AddNode(box.Lerp(fLat, fLon))
			}
			r := NewRouter(g, box, s)
			for _, p := range edges(s) {
				checkNearest(t, r, g, p)
			}
		}
	})

	t.Run("duplicates-and-ties", func(t *testing.T) {
		g := &Graph{}
		// Node 0 and node 1 sit at equal distance east and west of the
		// query longitude, in different cells; nodes 2–4 share one
		// position, inserted after a farther node.
		g.AddNode(geo.Point{Lat: 41.1875, Lon: -8.5625})
		g.AddNode(geo.Point{Lat: 41.1875, Lon: -8.6875})
		g.AddNode(geo.Point{Lat: 41.125, Lon: -8.65})
		dup := geo.Point{Lat: 41.13, Lon: -8.64}
		for i := 0; i < 3; i++ {
			g.AddNode(dup)
		}
		r := NewRouter(g, box, 8)
		for _, p := range []geo.Point{
			{Lat: 41.1875, Lon: -8.625},      // in-box exact tie
			{Lat: 41.3125, Lon: -8.625},      // out-of-box exact tie
			dup,                              // on the duplicated node
			{Lat: 41.1301, Lon: -8.6401},     // beside it
			{Lat: 41.0, Lon: -8.64},          // below the box
			box.Lerp(0.5, 0.5), box.Center(), // anywhere else
		} {
			checkNearest(t, r, g, p)
		}
		if got := r.NearestNode(geo.Point{Lat: 41.1875, Lon: -8.625}); got != 0 {
			t.Fatalf("in-box tie went to node %d, want lowest id 0", got)
		}
		if got := r.NearestNode(geo.Point{Lat: 41.3125, Lon: -8.625}); got != 0 {
			t.Fatalf("out-of-box tie went to node %d, want lowest id 0", got)
		}
		if got := r.NearestNode(dup); got != 3 {
			t.Fatalf("duplicate position snapped to node %d, want lowest id 3", got)
		}
	})

	t.Run("one-node", func(t *testing.T) {
		for _, at := range []geo.Point{box.Center(), box.Lerp(0, 0), box.Lerp(1, 1), box.Lerp(0.99, 0.01)} {
			g := &Graph{}
			g.AddNode(at)
			for _, s := range []int{0, 1, 7} {
				r := NewRouter(g, box, s)
				for _, p := range edges(5) {
					checkNearest(t, r, g, p)
				}
			}
		}
	})

	t.Run("default-graph", func(t *testing.T) {
		cfg := DefaultGridConfig()
		g, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRouter(g, cfg.Box, 0)
		for _, p := range edges(r.grid.Rows) {
			checkNearest(t, r, g, p)
		}
		rng := rand.New(rand.NewSource(9))
		n := 20000
		if testing.Short() {
			n = 2000
		}
		for i := 0; i < n; i++ {
			checkNearest(t, r, g, box.Lerp(rng.Float64()*1.1-0.05, rng.Float64()*1.1-0.05))
		}
		for id := 0; id < g.NumNodes(); id++ {
			checkNearest(t, r, g, g.Point(id))
		}
	})
}

// TestNearestNodeCoverAdmissible is the property the in-box path rests
// on: each cell's cover holds the brute-force nearest node of the
// cell's corners and of random points inside the cell. Under the
// default grid size, covers also stay local: a few nodes each, not the
// whole graph.
func TestNearestNodeCoverAdmissible(t *testing.T) {
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clustered := &Graph{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		clustered.AddNode(cfg.Box.Lerp(0.3+rng.Float64()*0.05, 0.6+rng.Float64()*0.05))
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		s    int
	}{{"default", g, 0}, {"default-s10", g, 10}, {"clustered", clustered, 12}} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRouter(tc.g, cfg.Box, tc.s)
			rows, cols := r.grid.Rows, r.grid.Cols
			for c := 0; c < rows*cols; c++ {
				cover := r.covers[r.coverOff[c]:r.coverOff[c+1]]
				if !slices.IsSorted(cover) {
					t.Fatalf("cell %d cover %v not in ascending id order", c, cover)
				}
				row, col := c/cols, c%cols
				pts := []geo.Point{
					cfg.Box.Lerp(float64(row)/float64(rows), float64(col)/float64(cols)),
					cfg.Box.Lerp(float64(row+1)/float64(rows), float64(col)/float64(cols)),
					cfg.Box.Lerp(float64(row)/float64(rows), float64(col+1)/float64(cols)),
					cfg.Box.Lerp(float64(row+1)/float64(rows), float64(col+1)/float64(cols)),
				}
				for i := 0; i < 20; i++ {
					pts = append(pts, cfg.Box.Lerp((float64(row)+rng.Float64())/float64(rows), (float64(col)+rng.Float64())/float64(cols)))
				}
				for _, p := range pts {
					if want, _ := bruteNearest(tc.g, p); !slices.Contains(cover, int32(want)) {
						t.Fatalf("cell %d: cover %v misses node %d, nearest to %v", c, cover, want, p)
					}
				}
			}
			mean := float64(len(r.covers)) / float64(rows*cols)
			t.Logf("%dx%d cells, mean cover %.2f nodes", rows, cols, mean)
			if tc.s == 0 && mean > 16 {
				t.Fatalf("mean cover %.2f nodes: covers are not local", mean)
			}
		})
	}
}

func TestNearestNodeEmptyGraph(t *testing.T) {
	r := NewRouter(&Graph{}, geo.PortoBox, 8)
	if got := r.NearestNode(geo.PortoBox.Center()); got != -1 {
		t.Fatalf("NearestNode on empty graph = %d, want -1", got)
	}
	a, b := geo.PortoBox.Lerp(0.2, 0.2), geo.PortoBox.Lerp(0.7, 0.7)
	if got, want := r.Dist(a, b), geo.Equirectangular(a, b); got != want {
		t.Fatalf("empty-graph Dist = %v, want crow-fly %v", got, want)
	}
}

// TestRouterDistDominatesCrowFly is the admissibility property the
// spatial pruning rail depends on: the network metric never undercuts
// straight-line distance, so crow-fly ring queries remain conservative.
func TestRouterDistDominatesCrowFly(t *testing.T) {
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 10)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		a := cfg.Box.Lerp(rng.Float64(), rng.Float64())
		b := cfg.Box.Lerp(rng.Float64(), rng.Float64())
		if i%10 == 0 { // near-coincident pairs stress the access legs
			b = geo.Point{Lat: a.Lat + (rng.Float64()-0.5)*1e-3, Lon: a.Lon + (rng.Float64()-0.5)*1e-3}
		}
		crow := geo.Equirectangular(a, b)
		if net := r.Dist(a, b); net < crow {
			t.Fatalf("Dist(%v, %v) = %v < crow-fly %v", a, b, net, crow)
		}
	}
}

// dijkstraDist is Router.Dist recomputed from scratch: brute-force
// snapping, Dijkstra between the snapped nodes, the access legs, and
// the crow-fly floor.
func dijkstraDist(g *Graph, a, b geo.Point) float64 {
	u, _ := bruteNearest(g, a)
	v, _ := bruteNearest(g, b)
	d := geo.Equirectangular(a, g.Point(u)) + geo.Equirectangular(b, g.Point(v))
	if u != v {
		km, _ := g.ShortestPath(u, v)
		d += km
	}
	if crow := geo.Equirectangular(a, b); crow > d {
		d = crow
	}
	return d
}

// TestRouterDistMatchesUnchachedRoute checks the whole snap+cache+CH
// pipeline against a from-scratch computation.
func TestRouterDistMatchesUnchachedRoute(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Seed = 5
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		a := cfg.Box.Lerp(rng.Float64(), rng.Float64())
		b := cfg.Box.Lerp(rng.Float64(), rng.Float64())
		if got, want := r.Dist(a, b), dijkstraDist(g, a, b); got != want {
			t.Fatalf("Dist(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

// TestRouterCacheSingleflight: concurrent misses on one key coalesce
// onto a single route computation. Run with -race.
func TestRouterCacheSingleflight(t *testing.T) {
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 10)
	a, b := cfg.Box.Lerp(0.1, 0.1), cfg.Box.Lerp(0.9, 0.9)

	const workers = 64
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	vals := make([]float64, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			start.Wait()
			vals[w] = r.Dist(a, b)
		}(w)
	}
	start.Done()
	done.Wait()
	for w := 1; w < workers; w++ {
		if vals[w] != vals[0] {
			t.Fatalf("worker %d saw %v, worker 0 saw %v", w, vals[w], vals[0])
		}
	}
	_, misses, _ := r.CacheStats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1: concurrent misses on one key must run a single route computation", misses)
	}
}

// TestRouterCacheConcurrentMixed hammers the cache with overlapping
// keys from many goroutines; run with -race. Every lookup lands in
// exactly one counter and the cache honors its bound.
func TestRouterCacheConcurrentMixed(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 10)
	r.SetCacheBound(64)

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				a := cfg.Box.Lerp(rng.Float64(), rng.Float64())
				b := cfg.Box.Lerp(rng.Float64(), rng.Float64())
				if d := r.Dist(a, b); math.IsNaN(d) || d < 0 {
					t.Errorf("Dist = %v", d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if size := r.CacheSize(); size > 64+routeCacheShards {
		t.Fatalf("cache size %d exceeds bound", size)
	}
	hits, misses, evictions := r.CacheStats()
	if misses == 0 || evictions == 0 {
		t.Fatalf("expected misses and evictions with a 64-entry bound; got hits=%d misses=%d evictions=%d",
			hits, misses, evictions)
	}
}

// TestRouterCacheEviction drives more distinct node pairs than the
// bound admits and checks FIFO eviction keeps the size capped while
// still returning correct distances.
func TestRouterCacheEviction(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 10)
	r.SetCacheBound(16) // one entry per shard
	n := g.NumNodes()
	for u := 0; u < n; u += 2 {
		for v := 1; v < n; v += 7 {
			if u == v {
				continue
			}
			want, _ := g.ShortestPath(u, v)
			if got := r.nodeDist(int32(u), int32(v)); got != want {
				t.Fatalf("nodeDist(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	if size := r.CacheSize(); size > 16 {
		t.Fatalf("cache size %d exceeds bound 16", size)
	}
	_, misses, evictions := r.CacheStats()
	if evictions == 0 || evictions >= misses {
		t.Fatalf("evictions = %d, misses = %d: want 0 < evictions < misses", evictions, misses)
	}
	// Re-resolving an evicted key must recompute the same value.
	want, _ := g.ShortestPath(0, g.NumNodes()-1)
	if got := r.nodeDist(0, int32(g.NumNodes()-1)); got != want {
		t.Fatalf("post-eviction nodeDist = %v, want %v", got, want)
	}
}

func TestRouterCacheStatsAccounting(t *testing.T) {
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, cfg.Box, 10)
	a, b := cfg.Box.Lerp(0.2, 0.3), cfg.Box.Lerp(0.8, 0.6)
	r.Dist(a, b)
	r.Dist(a, b)
	r.Dist(a, b)
	hits, misses, evictions := r.CacheStats()
	if misses != 1 || hits != 2 || evictions != 0 {
		t.Fatalf("stats = (hits=%d, misses=%d, evictions=%d), want (2, 1, 0)", hits, misses, evictions)
	}
}

// --- micro-benchmarks (fast: they run in the short-bench smoke) ------

func benchGraph(b *testing.B) (*Graph, GridConfig) {
	b.Helper()
	cfg := DefaultGridConfig()
	g, err := GenerateGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g, cfg
}

// BenchmarkNearestNode snaps points on the default city graph under the
// default grid size: in-box queries (the cover scan), out-of-box queries
// (the ring search), and a 9:1 mix of the two.
func BenchmarkNearestNode(b *testing.B) {
	g, cfg := benchGraph(b)
	r := NewRouter(g, cfg.Box, 0)
	rng := rand.New(rand.NewSource(1))
	inBox := make([]geo.Point, 1024)
	outBox := make([]geo.Point, 1024)
	for i := range inBox {
		inBox[i] = cfg.Box.Lerp(rng.Float64(), rng.Float64())
		// Up to a tenth of the box beyond one of its four edges.
		f, off := rng.Float64(), 1+rng.Float64()*0.1
		switch i % 4 {
		case 0:
			outBox[i] = cfg.Box.Lerp(off, f)
		case 1:
			outBox[i] = cfg.Box.Lerp(1-off, f)
		case 2:
			outBox[i] = cfg.Box.Lerp(f, off)
		default:
			outBox[i] = cfg.Box.Lerp(f, 1-off)
		}
	}
	mixed := make([]geo.Point, 1024)
	for i := range mixed {
		if i%10 == 9 {
			mixed[i] = outBox[i]
		} else {
			mixed[i] = inBox[i]
		}
	}
	for _, bc := range []struct {
		name string
		pts  []geo.Point
	}{{"in-box", inBox}, {"out-of-box", outBox}, {"mixed", mixed}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NearestNode(bc.pts[i%len(bc.pts)])
			}
		})
	}
}

// BenchmarkNewRouterCovers times the snap index build (buckets and
// covers) on the default city graph; the contraction hierarchy is
// built once outside the timer.
func BenchmarkNewRouterCovers(b *testing.B) {
	g, cfg := benchGraph(b)
	r := NewRouter(g, cfg.Box, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.covers, r.coverOff = nil, nil
		r.buildCovers()
	}
}

func BenchmarkRouterDistCached(b *testing.B) {
	g, cfg := benchGraph(b)
	r := NewRouter(g, cfg.Box, 10)
	a, c := cfg.Box.Lerp(0.1, 0.15), cfg.Box.Lerp(0.85, 0.8)
	r.Dist(a, c) // warm the single hot entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Dist(a, c)
	}
}

// BenchmarkDijkstraPairs times the reference kernel on the pairs
// BenchmarkCHQuery uses.
func BenchmarkDijkstraPairs(b *testing.B) {
	g, _ := benchGraph(b)
	n := g.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := (i * 7919) % n
		v := (i*104729 + 13) % n
		g.ShortestPath(u, v)
	}
}

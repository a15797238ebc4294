package roadnet

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
)

// Algorithm names a routing kernel. Contraction hierarchies are the
// only one; the type remains so NewRouterAlgo keeps its signature.
type Algorithm int

// AlgoCH routes over a contraction hierarchy.
const AlgoCH Algorithm = 0

// Router adapts a road graph to the framework's geo.DistanceFunc
// contract: Dist(a, b) snaps both points to their nearest intersections,
// routes between them with a contraction-hierarchy query, and adds the
// straight-line access legs. Route results are memoized in a bounded,
// sharded cache with per-key inflight de-duplication, so the O(M²)
// task-map construction and 50k-driver dispatch days pay each route
// once without growing memory without bound.
//
// Dist never returns less than the straight-line distance between its
// arguments, so crow-fly ring pruning (internal/spatial) stays
// admissible under the network metric.
//
// The snap grid's bounds assume the box passed to NewRouter covers the
// graph's nodes, which the generators in this package guarantee.
//
// Router is safe for concurrent use.
type Router struct {
	g  *Graph
	ch *Hierarchy

	// snap index: grid buckets of node ids, and per-cell covers (see
	// buildCovers): cell c's cover is covers[coverOff[c]:coverOff[c+1]],
	// ascending node ids.
	grid     *geo.Grid
	buckets  [][]int32
	spanKm   float64 // conservative min cell span, for ring termination
	coverOff []int32
	covers   []int32

	maxPerShard int64
	shards      [routeCacheShards]routeShard

	hits, misses, evictions atomic.Uint64
}

const (
	// routeCacheShards is the number of independently locked cache
	// shards; node-pair keys hash across them so concurrent match
	// workers rarely contend.
	routeCacheShards = 16

	// DefaultCacheEntries bounds the route cache. A city graph with n
	// intersections has at most n² routable pairs (~230k for the
	// default 20×24 grid), so the default never evicts there while
	// still capping memory (~48 MiB of entries) on huge graphs.
	DefaultCacheEntries = 1 << 20
)

// routeShard is one lock-striped slice of the route cache.
type routeShard struct {
	mu       sync.Mutex
	entries  map[[2]int32]float64
	fifo     [][2]int32 // insertion order, for FIFO eviction
	inflight map[[2]int32]*routeCall
}

// routeCall is a single in-flight route computation; concurrent misses
// on the same key wait on done instead of recomputing.
type routeCall struct {
	done chan struct{}
	d    float64
}

// NewRouter builds a contraction-hierarchy router over the graph,
// indexing nodes into an s x s snap grid covering box (s < 1 sizes the
// grid from the node count, about one node per cell). The route cache
// holds up to DefaultCacheEntries routes; tune with SetCacheBound
// before use.
func NewRouter(g *Graph, box geo.BoundingBox, s int) *Router {
	if s < 1 {
		s = max(1, int(math.Ceil(math.Sqrt(float64(g.NumNodes())))))
	}
	r := &Router{
		g:    g,
		ch:   BuildHierarchy(g),
		grid: geo.NewGrid(box, s, s),
	}
	r.maxPerShard = ceilDiv(DefaultCacheEntries, routeCacheShards)
	h, w := r.grid.CellSpanKm()
	r.spanKm = math.Min(h, w)
	r.buckets = make([][]int32, r.grid.NumCells())
	for id := 0; id < g.NumNodes(); id++ {
		c := r.grid.CellOf(g.Point(id))
		r.buckets[c] = append(r.buckets[c], int32(id))
	}
	r.buildCovers()
	return r
}

// NewRouterAlgo is NewRouter. It is kept, with the single-value
// Algorithm type, because the benchmark module's traced run builds its
// router through it.
func NewRouterAlgo(g *Graph, box geo.BoundingBox, s int, _ Algorithm) *Router {
	return NewRouter(g, box, s)
}

// SetCacheBound caps the route cache at roughly maxEntries memoized
// node pairs (rounded up to a multiple of the shard count; at least one
// per shard). Call before routing; it does not shrink an existing
// cache.
func (r *Router) SetCacheBound(maxEntries int) {
	if maxEntries < 1 {
		maxEntries = 1
	}
	r.maxPerShard = ceilDiv(int64(maxEntries), routeCacheShards)
}

func ceilDiv(n, d int64) int64 { return (n + d - 1) / d }

// NearestNode returns the graph node closest to p (-1 on an empty
// graph); ties go to the lowest node id. A query inside the box scans
// only its cell's cover, which buildCovers proves holds every node that
// can be nearest to any point of the cell. A query outside the box
// falls back to ringNearest.
func (r *Router) NearestNode(p geo.Point) int {
	if !r.grid.Box.Contains(p) {
		return r.ringNearest(p)
	}
	c := r.grid.CellOf(p)
	best := int32(-1)
	bestD := math.Inf(1)
	for _, id := range r.covers[r.coverOff[c]:r.coverOff[c+1]] {
		// Covers are in ascending id order, so a strict < keeps the
		// lowest id among equidistant nodes.
		if d := geo.Equirectangular(p, r.g.Point(int(id))); d < bestD {
			best, bestD = id, d
		}
	}
	return int(best)
}

// ringNearest is NearestNode for queries outside the box. It searches
// the snap grid in expanding Chebyshev rings around p's (clamped) cell
// and stops only when the next ring cannot possibly hold a node as
// close as the best so far: any point in a cell r rings away is at
// least (r-1)·min(cell height, cell width) from p, the same
// conservative bound internal/spatial uses, and clamping only moves the
// query closer to every in-box node. A populated-but-farther Moore
// neighborhood therefore never masks the true nearest node in a later
// ring.
func (r *Router) ringNearest(p geo.Point) int {
	cell := r.grid.CellOf(p)
	row, col := cell/r.grid.Cols, cell%r.grid.Cols
	best := int32(-1)
	bestD := math.Inf(1)
	consider := func(ids []int32) {
		for _, id := range ids {
			if d := geo.Equirectangular(p, r.g.Point(int(id))); d < bestD || d == bestD && id < best {
				best, bestD = id, d
			}
		}
	}
	for ring := 0; ring <= r.maxRing(); ring++ {
		if best >= 0 && float64(ring-1)*r.spanKm > bestD {
			break
		}
		r.ringCells(row, col, ring, func(c int) { consider(r.buckets[c]) })
	}
	return int(best)
}

// maxRing is the Chebyshev ring that reaches every cell from any cell.
func (r *Router) maxRing() int { return max(r.grid.Rows, r.grid.Cols) }

// coverSlack is the relative margin buildCovers widens its distance
// bounds by. geo.Equirectangular's rounding error is a few ulps
// (~1e-15 relative), so bounds padded by 1e-9 hold for the computed
// distances, not only for exact arithmetic.
const coverSlack = 1e-9

// buildCovers computes every snap cell's cover: the nodes that can be
// the nearest (or tied-nearest) node of some point in the cell. For a
// cell C, lo(C,q) and hi(C,q) bound the distance from any point of C
// to node q from below and above, and R_C = min_q hi(C,q) bounds every
// point's nearest-node distance from above. The nearest node q* of a
// point p in C (and every node tied with it) satisfies
// lo(C,q*) ≤ d(p,q*) ≤ R_C, so the cover {q : lo(C,q) ≤ R_C} holds it.
// The candidates come from a ring walk around C that stops once
// (ring-1)·spanKm exceeds R_C: no node farther out can reach R_C, so
// the build stays local instead of pairing every cell with every node.
func (r *Router) buildCovers() {
	box := r.grid.Box
	rows, cols := r.grid.Rows, r.grid.Cols
	latStep := (box.MaxLat - box.MinLat) / float64(rows)
	lonStep := (box.MaxLon - box.MinLon) / float64(cols)
	// Cell edges are padded so points CellOf rounds into a cell lie
	// inside its rectangle.
	padLat, padLon := coverSlack*(box.MaxLat-box.MinLat), coverSlack*(box.MaxLon-box.MinLon)

	// Equirectangular scales longitude by cos of the pair's mean
	// latitude, which lies between the lowest and highest latitude of
	// any query or node.
	latLo, latHi := box.MinLat-padLat, box.MaxLat+padLat
	for id := 0; id < r.g.NumNodes(); id++ {
		lat := r.g.Point(id).Lat
		latLo, latHi = math.Min(latLo, lat), math.Max(latHi, lat)
	}
	cosA, cosB := math.Cos(degToRad(latLo)), math.Cos(degToRad(latHi))
	cosLo, cosHi := math.Min(cosA, cosB), math.Max(cosA, cosB)
	if latLo <= 0 && latHi >= 0 {
		cosHi = 1
	}

	type cand struct {
		id int32
		lo float64
	}
	var cands []cand
	r.coverOff = make([]int32, rows*cols+1)
	for c := 0; c < rows*cols; c++ {
		row, col := c/cols, c%cols
		lat0, lat1 := box.MinLat+float64(row)*latStep-padLat, box.MinLat+float64(row+1)*latStep+padLat
		lon0, lon1 := box.MinLon+float64(col)*lonStep-padLon, box.MinLon+float64(col+1)*lonStep+padLon
		bound := math.Inf(1)
		cands = cands[:0]
		visit := func(cell int) {
			for _, id := range r.buckets[cell] {
				q := r.g.Point(int(id))
				dLatLo, dLatHi := spanDist(q.Lat, lat0, lat1)
				dLonLo, dLonHi := spanDist(q.Lon, lon0, lon1)
				lo := geo.EarthRadiusKm * math.Hypot(degToRad(dLonLo)*cosLo, degToRad(dLatLo)) * (1 - coverSlack)
				hi := geo.EarthRadiusKm * math.Hypot(degToRad(dLonHi)*cosHi, degToRad(dLatHi)) * (1 + coverSlack)
				bound = math.Min(bound, hi)
				cands = append(cands, cand{id, lo})
			}
		}
		for ring := 0; ring <= r.maxRing(); ring++ {
			if float64(ring-1)*r.spanKm*(1-coverSlack) > bound {
				break
			}
			r.ringCells(row, col, ring, visit)
		}
		start := len(r.covers)
		for _, k := range cands {
			if k.lo <= bound {
				r.covers = append(r.covers, k.id)
			}
		}
		slices.Sort(r.covers[start:])
		r.coverOff[c+1] = int32(len(r.covers))
	}
}

// spanDist returns the least and greatest |x - y| over y in [lo, hi].
func spanDist(x, lo, hi float64) (minD, maxD float64) {
	switch {
	case x < lo:
		minD = lo - x
	case x > hi:
		minD = x - hi
	}
	return minD, math.Max(math.Abs(x-lo), math.Abs(x-hi))
}

func degToRad(d float64) float64 { return d * math.Pi / 180 }

// ringCells visits the in-bounds cells at exactly Chebyshev distance
// ring from (row, col), in deterministic order.
func (r *Router) ringCells(row, col, ring int, visit func(cell int)) {
	rows, cols := r.grid.Rows, r.grid.Cols
	cellAt := func(rr, cc int) {
		if rr >= 0 && rr < rows && cc >= 0 && cc < cols {
			visit(rr*cols + cc)
		}
	}
	if ring == 0 {
		cellAt(row, col)
		return
	}
	for cc := col - ring; cc <= col+ring; cc++ { // top and bottom edges
		cellAt(row-ring, cc)
		cellAt(row+ring, cc)
	}
	for rr := row - ring + 1; rr <= row+ring-1; rr++ { // side edges, corners excluded
		cellAt(rr, col-ring)
		cellAt(rr, col+ring)
	}
}

// Dist computes the network distance between a and b in kilometers:
// straight-line access to the nearest intersections plus the shortest
// route between them, floored at the straight-line distance so the
// result is a true metric over-approximation of crow-fly (the
// equirectangular projection's triangle inequality holds only to ~1e-4
// at city scale, and pruning correctness must not depend on that). It
// implements geo.DistanceFunc.
func (r *Router) Dist(a, b geo.Point) float64 {
	crow := geo.Equirectangular(a, b)
	u := r.NearestNode(a)
	if u < 0 {
		return crow // empty graph: degrade to crow-fly
	}
	v := r.NearestNode(b)
	d := geo.Equirectangular(a, r.g.Point(u)) + geo.Equirectangular(b, r.g.Point(v))
	if u != v {
		d += r.nodeDist(int32(u), int32(v))
	}
	if crow > d {
		d = crow
	}
	return d
}

// shard maps a node-pair key onto its cache shard.
func (r *Router) shard(key [2]int32) *routeShard {
	h := uint32(key[0])*0x9E3779B1 ^ uint32(key[1])*0x85EBCA77
	return &r.shards[h%routeCacheShards]
}

// nodeDist returns the cached network distance between two
// intersections, computing it at most once per key: concurrent misses
// coalesce onto a single in-flight route computation (counted as one
// miss; the waiters count as hits, like any lookup served without a
// route computation).
func (r *Router) nodeDist(u, v int32) float64 {
	return r.nodeDistVia(u, v, nil)
}

// nodeDistVia is nodeDist with a pluggable kernel: when compute is
// non-nil it replaces the point-to-point CH query for this key's
// (single) computation.
// The batched one-to-many queries pass a closure that probes a shared
// half-search, so batch lookups keep the exact cache semantics — and
// hit/miss accounting — of looped per-pair lookups.
func (r *Router) nodeDistVia(u, v int32, compute func() float64) float64 {
	key := [2]int32{u, v}
	s := r.shard(key)
	s.mu.Lock()
	if d, ok := s.entries[key]; ok {
		s.mu.Unlock()
		r.hits.Add(1)
		return d
	}
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-c.done
		r.hits.Add(1)
		return c.d
	}
	c := &routeCall{done: make(chan struct{})}
	if s.inflight == nil {
		s.inflight = make(map[[2]int32]*routeCall)
	}
	s.inflight[key] = c
	s.mu.Unlock()

	r.misses.Add(1)
	if compute != nil {
		c.d = compute()
	} else {
		c.d = r.ch.Query(int(u), int(v))
	}
	close(c.done)

	s.mu.Lock()
	if s.entries == nil {
		s.entries = make(map[[2]int32]float64)
	}
	if int64(len(s.entries)) >= r.maxPerShard {
		old := s.fifo[0]
		s.fifo = s.fifo[1:]
		delete(s.entries, old)
		r.evictions.Add(1)
	}
	s.entries[key] = c.d
	s.fifo = append(s.fifo, key)
	delete(s.inflight, key)
	s.mu.Unlock()
	return c.d
}

// CacheSize returns the number of memoized node pairs (for tests and
// capacity planning).
func (r *Router) CacheSize() int {
	var n int
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// ResetCacheStats zeroes the hit/miss/eviction counters. The memoized
// routes themselves are kept — benches call this between legs (and
// around Circuity sampling) so each leg reports its own rates.
func (r *Router) ResetCacheStats() {
	r.hits.Store(0)
	r.misses.Store(0)
	r.evictions.Store(0)
}

// CacheStats returns the route cache's lifetime hit, miss, and eviction
// counters. Hits are lookups served without running a route computation
// (including waiters coalesced onto another goroutine's in-flight
// route); misses count route computations; evictions count entries
// dropped to honor the cache bound.
func (r *Router) CacheStats() (hits, misses, evictions uint64) {
	return r.hits.Load(), r.misses.Load(), r.evictions.Load()
}

// DistMany returns the network distances from origin to every target:
// element i is bitwise equal to Dist(origin, targets[i]). The whole
// batch shares one forward upward search (origin's side) and pays only
// a small bucket-probing backward search per target, so it beats
// looped Dist once a handful of targets share the origin. Cache
// semantics are identical to looped Dist: each pair is looked up,
// coalesced, counted, and stored exactly as a Dist call would.
func (r *Router) DistMany(origin geo.Point, targets []geo.Point) []float64 {
	out := make([]float64, len(targets))
	r.DistManyInto(origin, targets, out)
	return out
}

// DistManyInto is DistMany without the allocation; out must have at
// least len(targets) elements.
func (r *Router) DistManyInto(origin geo.Point, targets []geo.Point, out []float64) {
	if len(out) < len(targets) {
		panic("roadnet: DistManyInto out buffer too small")
	}
	u := r.NearestNode(origin)
	if u < 0 {
		for i, b := range targets {
			out[i] = r.Dist(origin, b)
		}
		return
	}
	var sc *chScratch
	for i, b := range targets {
		crow := geo.Equirectangular(origin, b)
		v := r.NearestNode(b)
		d := geo.Equirectangular(origin, r.g.Point(u)) + geo.Equirectangular(b, r.g.Point(v))
		if u != v {
			if sc == nil {
				sc = r.ch.scratch()
				r.ch.prepareForward(sc, int32(u))
			}
			d += r.nodeDistVia(int32(u), int32(v), func() float64 {
				return r.ch.probeTarget(sc, int32(v))
			})
		}
		if crow > d {
			d = crow
		}
		out[i] = d
	}
	if sc != nil {
		r.ch.pool.Put(sc)
	}
}

// DistManyTo is DistMany's many-to-one mirror: element i is bitwise
// equal to Dist(sources[i], dest). (The two shapes are distinct because
// float addition is not associative — Dist is directional down to the
// last bit, so a shared search must sit on the side the pairs share.)
func (r *Router) DistManyTo(sources []geo.Point, dest geo.Point) []float64 {
	out := make([]float64, len(sources))
	r.DistManyToInto(sources, dest, out)
	return out
}

// DistManyToInto is DistManyTo without the allocation; out must have at
// least len(sources) elements.
func (r *Router) DistManyToInto(sources []geo.Point, dest geo.Point, out []float64) {
	if len(out) < len(sources) {
		panic("roadnet: DistManyToInto out buffer too small")
	}
	if len(sources) == 0 {
		return
	}
	v := r.NearestNode(dest)
	if v < 0 {
		for i, a := range sources {
			out[i] = r.Dist(a, dest)
		}
		return
	}
	var sc *chScratch
	for i, a := range sources {
		crow := geo.Equirectangular(a, dest)
		u := r.NearestNode(a)
		d := geo.Equirectangular(a, r.g.Point(u)) + geo.Equirectangular(dest, r.g.Point(v))
		if u != v {
			if sc == nil {
				sc = r.ch.scratch()
				r.ch.prepareBackward(sc, int32(v))
			}
			d += r.nodeDistVia(int32(u), int32(v), func() float64 {
				return r.ch.probeSource(sc, int32(u))
			})
		}
		if crow > d {
			d = crow
		}
		out[i] = d
	}
	if sc != nil {
		r.ch.pool.Put(sc)
	}
}

// Circuity estimates the network's mean circuity (network distance over
// straight-line distance) by sampling n deterministic node pairs. Used
// by tests and benches to assert realism.
func (r *Router) Circuity(samples int) float64 {
	n := r.g.NumNodes()
	if n < 2 || samples < 1 {
		return 1
	}
	var sum float64
	var count int
	for i := 0; i < samples; i++ {
		u := (i * 7919) % n
		v := (i*104729 + 13) % n
		if u == v {
			continue
		}
		crow := geo.Equirectangular(r.g.Point(u), r.g.Point(v))
		if crow < 0.2 {
			continue
		}
		net := r.nodeDist(int32(u), int32(v))
		sum += net / crow
		count++
	}
	if count == 0 {
		return 1
	}
	return sum / float64(count)
}

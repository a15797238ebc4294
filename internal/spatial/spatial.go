// Package spatial maintains a bucketed index of moving points (drivers)
// over the cells of a geo.Grid, answering the radius queries the online
// dispatchers need: "which drivers could possibly be within R kilometers
// of this pickup?". It is the candidate pre-filter promised by the grid's
// doc comment — the exact per-driver feasibility checks in the simulator
// remain the final arbiter, so the index only has to be *conservative*:
// it may return points that turn out to be too far, but it must never
// drop a point that is within the radius.
//
// The index buckets each point into its grid cell and serves queries by
// expanding square rings of cells around the query point's cell. Ring r
// is visited only while its distance lower bound (r-1)·minCellSpan —
// scaled by a safety factor that absorbs projection distortion — does not
// exceed the query radius, so a query touches O(points within ~R) rather
// than all N points. Points outside the grid's bounding box are clamped
// into boundary cells; because clamping is a projection onto a convex
// box, it never increases pairwise distances, so the pruning bound stays
// valid for out-of-box points too.
//
// Distance checks use planar kilometer coordinates under a fixed
// conservative projection (see project) so the query hot path does no
// per-pair trigonometry. The conservativeness contract is stated in
// terms of equirectangular distance: a query with radius R visits every
// point whose equirectangular distance to the query point is at most
// R/Safety. Callers whose true travel metric can undercut
// equirectangular distance (it never does for the metrics in this
// repository: equirectangular itself, haversine at city scale, and road
// networks, whose path lengths exceed straight-line distance) must widen
// the radius accordingly.
package spatial

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// Safety discounts every pruning bound: a cell ring or an individual
// point is skipped only when its distance lower bound *after* multiplying
// by Safety still exceeds the query radius. The slack absorbs the small
// (well under 1% at city scale) disagreement between the equirectangular
// planar model the bounds are computed in and other city-scale metrics
// such as haversine.
const Safety = 0.9

// Index is a driver-over-grid-cells bucket index. Construct with
// NewSparseIndex and manage membership with Add and Remove — the shape
// zone shards need, where each shard indexes only the drivers currently
// inside its zone. It is not safe for concurrent mutation.
//
// Besides its location, every point carries an availability window
// [freeAt, retireAt) — for a driver: when she can next depart (shift
// start, or the lock release of her in-flight task) and when her shift
// ends. NearReachable combines the window with the distance bound so a
// city-scale fleet where most drivers are off shift or locked at query
// time is pruned by a float compare instead of a distance computation.
type Index struct {
	grid *geo.Grid

	loc      []geo.Point // id -> current location
	px, py   []float64   // id -> planar km coordinates (see project)
	freeAt   []float64   // id -> earliest departure time
	retireAt []float64   // id -> end of availability
	cell     []int       // id -> current cell, or absentCell when removed
	slot     []int       // id -> position inside bucket[cell[id]]

	bucket  [][]int // cell -> ids (unordered)
	members int     // number of present points

	minSpanKm float64 // conservative one-cell extent for ring bounds
	kmPerLon  float64 // km per degree of longitude at the box's widest-cos latitude
}

// absentCell marks an id that is allocated but not currently indexed
// (removed, or never added on a sparse index).
const absentCell = -1

// kmPerLat converts degrees of latitude to kilometers.
const kmPerLat = geo.EarthRadiusKm * math.Pi / 180

// project maps p to planar kilometer coordinates in which the Euclidean
// distance never exceeds the equirectangular distance for points at the
// box's latitudes: longitude is scaled with the *smallest* cosine the
// box reaches, so east-west separations are under-, never over-stated.
// Distance checks against these coordinates are therefore lower bounds,
// exactly what a conservative pre-filter needs — and they avoid the
// per-pair trigonometry of the true metric on the query hot path.
func (ix *Index) project(p geo.Point) (x, y float64) {
	return p.Lon * ix.kmPerLon, p.Lat * kmPerLat
}

// NewSparseIndex allocates an index with id space [0, n) over grid in
// which every id starts absent: queries visit nothing until points are
// inserted with Add. Every availability window starts as (-Inf, +Inf),
// i.e. always available; narrow it with SetSpan. Zone shards use this
// shape — each shard allocates the full fleet id space but only ever
// inserts the drivers currently located in its zone.
func NewSparseIndex(grid *geo.Grid, n int) *Index {
	h, w := grid.CellSpanKm()
	// Derive the longitude scale from the same conservative cell width
	// the ring-pruning bound uses, so the two can never drift apart: one
	// cell spans (lonSpan/Cols) degrees and w kilometers.
	kmPerLon := w * float64(grid.Cols) / (grid.Box.MaxLon - grid.Box.MinLon)
	ix := &Index{
		grid:      grid,
		loc:       make([]geo.Point, n),
		px:        make([]float64, n),
		py:        make([]float64, n),
		freeAt:    make([]float64, n),
		retireAt:  make([]float64, n),
		cell:      make([]int, n),
		slot:      make([]int, n),
		bucket:    make([][]int, grid.NumCells()),
		minSpanKm: min(h, w),
		kmPerLon:  kmPerLon,
	}
	for id := 0; id < n; id++ {
		ix.freeAt[id] = math.Inf(-1)
		ix.retireAt[id] = math.Inf(1)
		ix.cell[id] = absentCell
	}
	return ix
}

// Len returns the size of the id space (present or not).
func (ix *Index) Len() int { return len(ix.loc) }

// Members returns the number of currently present points.
func (ix *Index) Members() int { return ix.members }

// Contains reports whether id is currently present in the index.
func (ix *Index) Contains(id int) bool {
	ix.checkID(id)
	return ix.cell[id] != absentCell
}

// Location returns the current location of id.
func (ix *Index) Location(id int) geo.Point { return ix.loc[id] }

func (ix *Index) checkID(id int) {
	if id < 0 || id >= len(ix.loc) {
		panic(fmt.Sprintf("spatial: id %d out of range [0,%d)", id, len(ix.loc)))
	}
}

// Add inserts the absent id at location p. The id's availability window
// is preserved across Remove/Add cycles. It panics if id is already
// present — membership bugs (a driver indexed by two zone shards at
// once) must not pass silently.
func (ix *Index) Add(id int, p geo.Point) {
	ix.checkID(id)
	if ix.cell[id] != absentCell {
		panic(fmt.Sprintf("spatial: Add of already-present id %d", id))
	}
	ix.loc[id] = p
	ix.px[id], ix.py[id] = ix.project(p)
	c := ix.grid.CellOf(p)
	ix.cell[id] = c
	ix.slot[id] = len(ix.bucket[c])
	ix.bucket[c] = append(ix.bucket[c], id)
	ix.members++
}

// Remove detaches id from the index (driver retirement, or migration to
// another zone shard): subsequent queries never visit it. The id keeps
// its slot in the id space and may be re-inserted with Add. It panics if
// id is absent.
func (ix *Index) Remove(id int) {
	ix.checkID(id)
	old := ix.cell[id]
	if old == absentCell {
		panic(fmt.Sprintf("spatial: Remove of absent id %d", id))
	}
	// Swap-remove from the bucket.
	b := ix.bucket[old]
	s := ix.slot[id]
	last := len(b) - 1
	b[s] = b[last]
	ix.slot[b[s]] = s
	ix.bucket[old] = b[:last]
	ix.cell[id] = absentCell
	ix.members--
}

// Move updates id's location, rebucketing it if it crossed a cell
// boundary. It panics if id is absent.
func (ix *Index) Move(id int, p geo.Point) {
	ix.checkID(id)
	old := ix.cell[id]
	if old == absentCell {
		panic(fmt.Sprintf("spatial: Move of absent id %d", id))
	}
	ix.loc[id] = p
	ix.px[id], ix.py[id] = ix.project(p)
	c := ix.grid.CellOf(p)
	if c == old {
		return
	}
	// Swap-remove from the old bucket.
	b := ix.bucket[old]
	s := ix.slot[id]
	last := len(b) - 1
	b[s] = b[last]
	ix.slot[b[s]] = s
	ix.bucket[old] = b[:last]

	ix.cell[id] = c
	ix.slot[id] = len(ix.bucket[c])
	ix.bucket[c] = append(ix.bucket[c], id)
}

// SetSpan sets id's availability window: freeAt is the earliest time the
// point can start moving, retireAt the time it stops being available.
func (ix *Index) SetSpan(id int, freeAt, retireAt float64) {
	ix.checkID(id)
	ix.freeAt[id] = freeAt
	ix.retireAt[id] = retireAt
}

// Near calls visit for every point whose equirectangular distance to p,
// scaled by Safety, is within radiusKm — a superset of the points truly
// within radiusKm. Availability windows are ignored. Visit order is
// unspecified (it follows ring and bucket order, both of which depend on
// mutation history); callers that need a canonical order must sort the
// ids they collect.
func (ix *Index) Near(p geo.Point, radiusKm float64, visit func(id int)) {
	if radiusKm < 0 {
		return
	}
	qx, qy := ix.project(p)
	limitSq := (radiusKm / Safety) * (radiusKm / Safety)
	ix.query(p, radiusKm, func(id int) bool {
		dx, dy := ix.px[id]-qx, ix.py[id]-qy
		return dx*dx+dy*dy <= limitSq
	}, visit)
}

// NearReachable calls visit for every point that could move from its
// current location to p by time byTime: it retires no earlier than
// minRetire, and traveling at speedKmh from the later of its free time
// and now leaves enough budget to cover the (Safety-scaled
// equirectangular) distance. The caller supplies speedKmh as an upper
// bound on any point's true speed, making the visit set a superset of
// the truly reachable points; exact feasibility stays with the caller.
func (ix *Index) NearReachable(p geo.Point, speedKmh, byTime, now, minRetire float64, visit func(id int)) {
	if speedKmh <= 0 || byTime < now {
		return
	}
	radiusKm := speedKmh * (byTime - now) / 3600
	qx, qy := ix.project(p)
	ix.query(p, radiusKm, func(id int) bool {
		// Availability prunes first: on a day-long market most of the
		// fleet is off shift or locked, and these are float compares.
		if ix.retireAt[id] < minRetire {
			return false
		}
		depart := ix.freeAt[id]
		if depart < now {
			depart = now
		}
		if depart > byTime {
			return false
		}
		// Compare travel time at the fleet-max speed against the point's
		// own remaining budget, using the Safety-discounted planar
		// distance lower bound (squared, to avoid the square root).
		budgetKm := speedKmh * (byTime - depart) / 3600 / Safety
		dx, dy := ix.px[id]-qx, ix.py[id]-qy
		return dx*dx+dy*dy <= budgetKm*budgetKm
	}, visit)
}

// query expands cell rings around p out to ringRadiusKm and calls visit
// for every point accepted by the predicate.
func (ix *Index) query(p geo.Point, ringRadiusKm float64, accept func(id int) bool, visit func(id int)) {
	if ringRadiusKm < 0 {
		return
	}
	center := ix.grid.CellOf(p)
	crow, ccol := center/ix.grid.Cols, center%ix.grid.Cols
	maxRing := ix.grid.Rows
	if ix.grid.Cols > maxRing {
		maxRing = ix.grid.Cols
	}
	for r := 0; r <= maxRing; r++ {
		// Every point in a ring-r cell is at least (r-1) cell spans from
		// any point in the center cell; beyond the radius, all farther
		// rings are out too.
		if r > 1 && float64(r-1)*ix.minSpanKm*Safety > ringRadiusKm {
			break
		}
		ix.visitRing(crow, ccol, r, accept, visit)
	}
}

// visitRing scans the cells at Chebyshev distance r from (crow, ccol).
func (ix *Index) visitRing(crow, ccol, r int, accept func(id int) bool, visit func(id int)) {
	if r == 0 {
		ix.visitCell(crow, ccol, accept, visit)
		return
	}
	for dc := -r; dc <= r; dc++ { // top and bottom edges
		ix.visitCell(crow-r, ccol+dc, accept, visit)
		ix.visitCell(crow+r, ccol+dc, accept, visit)
	}
	for dr := -r + 1; dr <= r-1; dr++ { // left and right edges, corners done
		ix.visitCell(crow+dr, ccol-r, accept, visit)
		ix.visitCell(crow+dr, ccol+r, accept, visit)
	}
}

func (ix *Index) visitCell(row, col int, accept func(id int) bool, visit func(id int)) {
	if row < 0 || row >= ix.grid.Rows || col < 0 || col >= ix.grid.Cols {
		return
	}
	for _, id := range ix.bucket[row*ix.grid.Cols+col] {
		if accept(id) {
			visit(id)
		}
	}
}

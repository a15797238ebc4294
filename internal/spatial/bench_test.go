package spatial

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// Micro-benchmarks for the ring queries on the candidate-generation hot
// path: Near (pure radius) and NearReachable (radius plus availability
// pruning), at fleet sizes where the bucketed expansion either touches
// a handful of cells or degenerates toward a scan. CI runs these at
// -benchtime 1x as a bit-rot smoke.

// benchIndex builds an index of n points spread over the Porto box,
// with availability windows staggered so NearReachable prunes roughly
// half the fleet at the benchmark query times.
func benchIndex(n int) (*Index, []geo.Point) {
	rng := rand.New(rand.NewSource(5))
	box := geo.PortoBox
	grid := geo.NewGrid(box, 64, 64)
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
			Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
		}
	}
	ix := newIndex(grid, pts)
	for i := range pts {
		start := rng.Float64() * 43200
		ix.SetSpan(i, start, start+4*3600)
	}
	queries := make([]geo.Point, 256)
	for i := range queries {
		queries[i] = geo.Point{
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
			Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
		}
	}
	return ix, queries
}

func BenchmarkRingQueries(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		ix, queries := benchIndex(n)
		for _, radius := range []float64{0.5, 2, 8} {
			b.Run(fmt.Sprintf("near/n=%d/r=%.1fkm", n, radius), func(b *testing.B) {
				b.ReportAllocs()
				hits := 0
				for i := 0; i < b.N; i++ {
					q := queries[i%len(queries)]
					ix.Near(q, radius, func(int) { hits++ })
				}
				_ = hits
			})
		}
		b.Run(fmt.Sprintf("near-reachable/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				now := float64(i%86400) / 86400 * 43200
				ix.NearReachable(q, 30, now+300, now, now, func(int) { hits++ })
			}
			_ = hits
		})
	}
}

package dispatch

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// RoadNetwork configures the road-network distance rail: a synthetic
// street graph over the Porto box whose shortest-path lengths replace
// the default crow-fly metric for every travel-time, cost and deadline
// computation the service makes. The struct is plain data — it
// serializes into the durability journal, so a restored service rebuilds
// the identical graph and router (the generator is seeded).
//
// Zero values take the defaults of the internal generator's Porto grid
// (20×24 intersections, seed 1) and router (2²⁰ cached node pairs).
type RoadNetwork struct {
	// Rows and Cols size the street grid; both must be ≥ 2.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Seed drives the generator's street removal, diagonal avenues and
	// node jitter.
	Seed int64 `json:"seed,omitempty"`
	// CacheEntries bounds the router's route cache (node pairs held
	// across all shards); must be ≥ 0, where 0 means the default.
	CacheEntries int `json:"cache_entries,omitempty"`
	// Algo names the routing kernel. Contraction hierarchies are the
	// only one: "" and "ch" select it, and "alt" — a retired kernel
	// that returned bitwise-identical distances — is accepted as an
	// alias so journals that recorded it still restore. Anything else
	// is rejected.
	Algo string `json:"algo,omitempty"`
}

// normalized resolves zero fields to their defaults so the value stored
// in the config — and journaled by the durable rail — is self-contained.
func (rn RoadNetwork) normalized() (RoadNetwork, error) {
	def := roadnet.DefaultGridConfig()
	if rn.Rows == 0 {
		rn.Rows = def.Rows
	}
	if rn.Cols == 0 {
		rn.Cols = def.Cols
	}
	if rn.Seed == 0 {
		rn.Seed = def.Seed
	}
	if rn.CacheEntries == 0 {
		rn.CacheEntries = roadnet.DefaultCacheEntries
	}
	if rn.Rows < 2 || rn.Cols < 2 {
		return rn, fmt.Errorf("%w: road network %dx%d, want at least 2x2 intersections", ErrInvalidOption, rn.Rows, rn.Cols)
	}
	if rn.CacheEntries < 0 {
		return rn, fmt.Errorf("%w: road network cache entries %d, want ≥ 0", ErrInvalidOption, rn.CacheEntries)
	}
	switch rn.Algo {
	case "":
		rn.Algo = "ch"
	case "ch", "alt":
	default:
		return rn, fmt.Errorf("%w: road network algo %q, want \"ch\"", ErrInvalidOption, rn.Algo)
	}
	return rn, nil
}

// build generates the street graph and wraps it in a router whose Dist
// becomes the market metric.
func (rn RoadNetwork) build() (*roadnet.Router, error) {
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols, gcfg.Seed = rn.Rows, rn.Cols, rn.Seed
	g, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		return nil, fmt.Errorf("%w: road network: %v", ErrInvalidOption, err)
	}
	r := roadnet.NewRouter(g, gcfg.Box, 0)
	r.SetCacheBound(rn.CacheEntries)
	return r, nil
}

// WithRoadNetwork routes every distance the service computes over a
// seeded synthetic street graph instead of the default crow-fly metric:
// travel times, feasibility deadlines and trip costs all reflect street
// circuity (network distance is never below crow-fly, so ring-pruned
// candidate generation stays exact). The option is serializable —
// unlike WithDistanceFunc it composes with WithDurability, and Restore
// rebuilds the identical graph from the journaled configuration.
// Mutually exclusive with WithDistanceFunc.
func WithRoadNetwork(rn RoadNetwork) Option {
	return func(c *config) error {
		if c.distFunc != nil {
			return fmt.Errorf("%w: WithRoadNetwork and WithDistanceFunc are mutually exclusive", ErrInvalidOption)
		}
		norm, err := rn.normalized()
		if err != nil {
			return err
		}
		c.roadnet = &norm
		return nil
	}
}

// WithDistanceFunc replaces the market metric with an arbitrary
// kilometre distance function. The function must be non-negative,
// finite, safe for concurrent calls, and should
// dominate crow-fly distance if candidate ring pruning is to stay
// exact; the service calls it on every feasibility and cost evaluation.
// An arbitrary function cannot be journaled, so this option refuses to
// combine with WithDurability — use WithRoadNetwork for a durable
// network metric. Mutually exclusive with WithRoadNetwork.
func WithDistanceFunc(f func(a, b Point) float64) Option {
	return func(c *config) error {
		if f == nil {
			return fmt.Errorf("%w: nil distance function", ErrInvalidOption)
		}
		if c.roadnet != nil {
			return fmt.Errorf("%w: WithRoadNetwork and WithDistanceFunc are mutually exclusive", ErrInvalidOption)
		}
		c.distFunc = func(a, b geo.Point) float64 {
			return f(Point{Lat: a.Lat, Lon: a.Lon}, Point{Lat: b.Lat, Lon: b.Lon})
		}
		return nil
	}
}

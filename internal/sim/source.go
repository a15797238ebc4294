package sim

import (
	"math"

	"repro/internal/geo"
	"repro/internal/model"
)

// ScanSource is the reference CandidateSource: the exact per-driver
// feasibility loop of Algorithms 3–4. ShardedSource (sharded.go) puts
// spatial indexes between the task and that loop: only drivers inside
// the max-speed reachability radius of the pickup are checked exactly.
// Its pre-filter is conservative — it never drops a driver the scan
// would accept — and survivors are checked in ascending driver order,
// so the two sources yield bit-identical simulations (the differential
// tests assert exactly that).

// ScanSource enumerates candidates with an exact linear scan over all
// drivers — O(N) per task. The zero value is ready for Engine use.
type ScanSource struct {
	e *Engine
}

var _ CandidateSource = (*ScanSource)(nil)

// Name implements CandidateSource.
func (s *ScanSource) Name() string { return "scan" }

// Bind implements CandidateSource.
func (s *ScanSource) Bind(e *Engine) { s.e = e }

// Candidates implements CandidateSource.
func (s *ScanSource) Candidates(task model.Task, now float64, buf []Candidate) []Candidate {
	return s.e.candidates(task, now, buf)
}

// Moved implements CandidateSource.
func (s *ScanSource) Moved(int) {}

// Presence implements CandidateSource. The scan has no index to prune;
// the engine's exact feasibility check skips absent drivers.
func (s *ScanSource) Presence(int, bool) {}

// fleetBox bounds the fleet's start/end positions, padded so boundary
// drivers do not all clamp into edge cells; points outside it (e.g.
// pickups of far-out tasks) stay correct via clamping, merely a little
// slower. An empty fleet gets the Porto box.
func fleetBox(drivers []model.Driver) geo.BoundingBox {
	if len(drivers) == 0 {
		return geo.PortoBox
	}
	box := geo.BoundingBox{
		MinLat: math.Inf(1), MinLon: math.Inf(1),
		MaxLat: math.Inf(-1), MaxLon: math.Inf(-1),
	}
	grow := func(p geo.Point) {
		box.MinLat = math.Min(box.MinLat, p.Lat)
		box.MaxLat = math.Max(box.MaxLat, p.Lat)
		box.MinLon = math.Min(box.MinLon, p.Lon)
		box.MaxLon = math.Max(box.MaxLon, p.Lon)
	}
	for _, d := range drivers {
		grow(d.Source)
		grow(d.Dest)
	}
	const padDeg = 0.005 // ~0.5 km; also un-degenerates single-point fleets
	box.MinLat = math.Max(box.MinLat-padDeg, -90)
	box.MinLon = math.Max(box.MinLon-padDeg, -180)
	box.MaxLat = math.Min(box.MaxLat+padDeg, 90)
	box.MaxLon = math.Min(box.MaxLon+padDeg, 180)
	return box
}

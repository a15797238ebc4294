package traced

import (
	"math/rand"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/sim"
)

// snapSampleEvery keeps one query point in this many for the snapping
// replay, up to snapSampleCap points.
const (
	snapSampleEvery = 7
	snapSampleCap   = 1 << 16
)

// tracer wraps the engine's seams and counts what passes through them.
// The counters are guarded by the recorder's mutex.
type tracer struct {
	rec *recorder

	cands, nonempty int // candidates returned, calls returning any
	targets         int // points handed to DistMany beyond the shared endpoint
	snapPoints      int // points handed to the router
	snapSample      []geo.Point
	windowOrders    int // orders in closed windows, after cancellations
	windowMatched   int
}

func (t *tracer) notePoints(pts ...geo.Point) {
	for _, p := range pts {
		if t.snapPoints%snapSampleEvery == 0 && len(t.snapSample) < snapSampleCap {
			t.snapSample = append(t.snapSample, p)
		}
		t.snapPoints++
	}
}

// windowClosed is the stream's batch-close handler: the stream call it
// fires inside becomes the window's span.
func (t *tracer) windowClosed(bs sim.BatchStats) {
	t.rec.markWindow()
	t.rec.mu.Lock()
	t.windowOrders += bs.Submitted - bs.Cancelled
	t.windowMatched += bs.Matched
	t.rec.mu.Unlock()
}

// source times a candidate source.
type source struct {
	inner sim.CandidateSource
	t     *tracer
}

func (s source) Name() string       { return s.inner.Name() }
func (s source) Bind(e *sim.Engine) { s.inner.Bind(e) }

func (s source) Candidates(task model.Task, now float64, buf []sim.Candidate) []sim.Candidate {
	i := s.t.rec.begin(spCandidates)
	n := len(buf)
	buf = s.inner.Candidates(task, now, buf)
	s.t.rec.end(i)
	s.t.rec.mu.Lock()
	s.t.cands += len(buf) - n
	if len(buf) > n {
		s.t.nonempty++
	}
	s.t.rec.mu.Unlock()
	return buf
}

func (s source) Moved(i int) {
	st := s.t.rec.now()
	s.inner.Moved(i)
	s.t.rec.leaf(spSourceWrite, st)
}

func (s source) Presence(i int, present bool) {
	st := s.t.rec.now()
	s.inner.Presence(i, present)
	s.t.rec.leaf(spSourceWrite, st)
}

// chooser times a dispatch policy.
type chooser struct {
	inner sim.Dispatcher
	t     *tracer
}

func (c chooser) Name() string { return c.inner.Name() }

func (c chooser) Choose(task model.Task, cands []sim.Candidate, rng *rand.Rand) int {
	st := c.t.rec.now()
	k := c.inner.Choose(task, cands, rng)
	c.t.rec.leaf(spChoose, st)
	return k
}

// dist times the router's point-to-point distance.
func (t *tracer) dist(r *roadnet.Router) geo.DistanceFunc {
	return func(a, b geo.Point) float64 {
		st := t.rec.now()
		d := r.Dist(a, b)
		t.rec.leaf(spDist, st)
		t.rec.mu.Lock()
		t.notePoints(a, b)
		t.rec.mu.Unlock()
		return d
	}
}

// batcher times the router's one-to-many distances.
type batcher struct {
	r *roadnet.Router
	t *tracer
}

func (b batcher) DistManyInto(origin geo.Point, targets []geo.Point, out []float64) {
	st := b.t.rec.now()
	b.r.DistManyInto(origin, targets, out)
	b.note(st, origin, targets)
}

func (b batcher) DistManyToInto(sources []geo.Point, dest geo.Point, out []float64) {
	st := b.t.rec.now()
	b.r.DistManyToInto(sources, dest, out)
	b.note(st, dest, sources)
}

func (b batcher) note(start int64, shared geo.Point, many []geo.Point) {
	b.t.rec.leaf(spDistMany, start)
	b.t.rec.mu.Lock()
	b.t.targets += len(many)
	b.t.notePoints(shared)
	b.t.notePoints(many...)
	b.t.rec.mu.Unlock()
}

package traced

import (
	"fmt"

	"repro/perfbench/bench"
	"repro/perfbench/e2e"
)

// Report is everything one traced run measured.
type Report struct {
	Untraced  e2e.Replay    `json:"untraced"`
	TracedS   float64       `json:"traced_wall_s"`
	Books     []string      `json:"books_compared"`
	Spans     int           `json:"spans"`
	SpansFile string        `json:"spans_file,omitempty"`
	WAL       *walProfile   `json:"wal,omitempty"`
	Metrics   bench.Metrics `json:"metrics"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`

	minSelfS float64
}

// Run replays the workload's day untraced, traced, and through the
// batch simulator, checks that all settle the same books, and computes
// the per-layer metrics. spansName, when not empty, is the file under
// the results directory the spans are written to.
func Run(w bench.Workload, seed int64, spansName string) (Report, error) {
	var rep Report
	day := bench.NewDay(w, seed)

	dir, cleanup, err := e2e.Scratch()
	if err != nil {
		return rep, err
	}
	rep.Untraced, err = e2e.ReplayDay(w, day, dir, nil)
	cleanup()
	rep.Attempted, rep.Failed = rep.Untraced.Attempted, rep.Untraced.Failed
	if err != nil {
		return rep, fmt.Errorf("untraced replay: %w", err)
	}
	if err := rep.Untraced.Check(w); err != nil {
		return rep, fmt.Errorf("untraced replay: %w", err)
	}

	sr, err := replayStream(w, day)
	if err != nil {
		return rep, fmt.Errorf("traced replay: %w", err)
	}
	ref, err := reference(w, day)
	if err != nil {
		return rep, fmt.Errorf("reference replay: %w", err)
	}
	labels := []string{"untraced", "traced", "reference"}
	books := []bench.Books{rep.Untraced.Books, sr.books, ref}

	var leg httpLeg
	if w.HTTP {
		if leg, err = replayHTTP(w, day); err != nil {
			return rep, fmt.Errorf("traced HTTP replay: %w", err)
		}
		rep.Attempted += leg.replay.Attempted
		rep.Failed += leg.replay.Failed
		if err := leg.replay.Check(w); err != nil {
			return rep, fmt.Errorf("traced HTTP replay: %w", err)
		}
		labels = append(labels, "traced-http", "restored")
		books = append(books, leg.replay.Books, leg.replay.RestoreBooks)
		rep.WAL = &leg.wal
	}
	rep.Books = labels
	for i, b := range books {
		if err := b.Check(); err != nil {
			return rep, fmt.Errorf("%s: %w", labels[i], err)
		}
	}
	if err := bench.SameBooks(labels, books); err != nil {
		return rep, err
	}
	if rep.Failed > 0 {
		return rep, fmt.Errorf("%d of %d operations failed (first: %s)", rep.Failed, rep.Attempted, rep.Untraced.FirstErr)
	}

	spans := sr.t.rec.spans
	prof := analyze(spans)
	rep.Spans = len(spans)
	rep.minSelfS = prof.minSelf
	if spansName != "" {
		if rep.SpansFile, err = writeSpans(spansName, spans, prof.selfNs); err != nil {
			return rep, fmt.Errorf("writing spans: %w", err)
		}
	}
	rep.Metrics = layerMetrics(w, day, &rep, sr, prof, leg)
	return rep, nil
}

func layerMetrics(w bench.Workload, day *bench.Day, rep *Report, sr streamRun, p profile, leg httpLeg) bench.Metrics {
	m := bench.Metrics{}
	t := sr.t
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	orders := float64(len(day.Tasks))

	m.Set("sim.candidates.calls", float64(p.calls[spCandidates]), "count")
	m.Set("sim.candidates.busy_s", p.busy[spCandidates], "s")
	m.Set("sim.candidates.self_s", p.self[spCandidates], "s")
	m.Set("sim.candidates.mean", frac(float64(t.cands), float64(p.calls[spCandidates])), "count")
	m.Set("sim.candidates.nonempty_frac", frac(float64(t.nonempty), float64(p.calls[spCandidates])), "ratio")
	m.Set("sim.source.writes.calls", float64(p.calls[spSourceWrite]), "count")
	m.Set("sim.source.writes.busy_s", p.busy[spSourceWrite], "s")
	m.Set("online.choose.calls", float64(p.calls[spChoose]), "count")
	m.Set("online.choose.busy_s", p.busy[spChoose], "s")

	m.Set("roadnet.dist.calls", float64(p.calls[spDist]), "count")
	m.Set("roadnet.dist.busy_s", p.busy[spDist], "s")
	m.Set("roadnet.distmany.calls", float64(p.calls[spDistMany]), "count")
	m.Set("roadnet.distmany.targets", float64(t.targets), "count")
	m.Set("roadnet.distmany.busy_s", p.busy[spDistMany], "s")
	m.Set("roadnet.snap.points", float64(t.snapPoints), "count")
	m.Set("roadnet.snap.replay_us", snapReplayUs(sr.router, t.snapSample), "us")
	var hitFrac, evictions float64
	if sr.router != nil {
		hits, misses, ev := sr.router.CacheStats()
		hitFrac, evictions = frac(float64(hits), float64(hits+misses)), float64(ev)
	}
	m.Set("roadnet.cache.hit_frac", hitFrac, "ratio")
	m.Set("roadnet.cache.evictions", evictions, "count")

	m.Set("sim.window.count", float64(p.calls[spWindow]), "count")
	m.Set("sim.window.busy_s", p.busy[spWindow], "s")
	m.Set("sim.window.self_s", p.self[spWindow], "s")
	m.Set("sim.window.orders_mean", frac(float64(t.windowOrders), float64(p.calls[spWindow])), "count")
	m.Set("sim.window.match_frac", frac(float64(t.windowMatched), float64(t.windowOrders)), "ratio")
	m.Set("sim.arrival.self_s", p.self[spSubmit]+p.self[spCancel]+p.self[spRetire]+p.self[spFinish], "s")

	var wp walProfile
	if rep.WAL != nil {
		wp = *rep.WAL
	}
	m.Set("wal.records", float64(wp.Records), "count")
	m.Set("wal.bytes_per_order", wp.BytesPerOrder, "B")
	m.Set("wal.snapshots", float64(wp.Snapshots), "count")
	m.Set("wal.snapshot_bytes", float64(wp.SnapshotBytes), "B")
	m.Set("wal.append.replay_us", wp.AppendUs, "us")
	m.Set("wal.sync.replay_ms", wp.SyncMs, "ms")
	m.Set("wal.snapshot_write.replay_ms", wp.SnapshotWriteMs, "ms")
	m.Set("dispatch.restore_s", rep.Untraced.RestoreS, "s")

	var busy float64
	for _, d := range leg.handler {
		busy += d
	}
	handler, _ := bench.Summarize(append([]float64(nil), leg.handler...), 0)
	transport, _ := bench.Summarize(leg.transport, 0)
	lag, _ := bench.Summarize(append([]float64(nil), leg.replay.Lag...), 0)
	m.Set("fed.handler.busy_s", busy, "s")
	m.Set("fed.handler.p99_ms", handler.P99Ms, "ms")
	m.Set("http.transport.p50_ms", transport.P50Ms, "ms")
	m.Set("loadgen.lag.p99_ms", lag.P99Ms, "ms")

	mem := rep.Untraced.Mem
	m.Set("go.allocs_per_order", float64(mem.Mallocs)/orders, "count")
	m.Set("go.bytes_per_order", float64(mem.TotalBytes)/orders, "B")
	m.Set("go.gc_cycles", float64(mem.GCCycles), "count")
	m.Set("go.gc_pause_s", mem.GCPauseS, "s")

	// On the open loop the wall is set by the schedule, so tracing
	// overhead compares the two open loops; in process it compares the
	// traced stream with the untraced service.
	rep.TracedS = sr.wallS
	untraced := rep.Untraced.WallS
	if w.HTTP {
		rep.TracedS = leg.replay.WallS
	}
	m.Set("trace.overhead_frac", rep.TracedS/untraced-1, "ratio")
	m.Set("trace.coverage_frac", p.topCover/sr.wallS, "ratio")
	return m
}

// Check holds the invariants a traced run must meet whatever the
// workload: no negative self time, and top-level spans covering all but
// minCover of the traced stream's wall time.
func (r *Report) Check(minCover float64) error {
	if r.minSelfS < 0 {
		return fmt.Errorf("a span has negative self time %g s", r.minSelfS)
	}
	if c := r.Metrics["trace.coverage_frac"].Value; c < minCover {
		return fmt.Errorf("top-level spans cover %.3f of the traced wall, want at least %.3f", c, minCover)
	}
	return nil
}

package dispatch

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// settleTrace replays a whole trace through a fresh service and closes
// it, returning the settled result.
func settleTrace(t *testing.T, tr model.Trace, opts ...Option) *sim.Result {
	t.Helper()
	svc := replayTrace(t, tr, opts...)
	if _, err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return svc.final
}

// TestWithRoadNetworkChangesOutcome: the street-graph metric must
// actually reach the dispatch path — a day replayed under
// WithRoadNetwork settles differently from the crow-fly day — and must
// be deterministic: two services built from the same RoadNetwork config
// settle bit-identically.
func TestWithRoadNetworkChangesOutcome(t *testing.T) {
	cfg := trace.NewConfig(71, 90, 40, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)

	crow := settleTrace(t, tr, WithSeed(3))
	netA := settleTrace(t, tr, WithSeed(3), WithRoadNetwork(RoadNetwork{}))
	netB := settleTrace(t, tr, WithSeed(3), WithRoadNetwork(RoadNetwork{}))

	if crow.Served == 0 || netA.Served == 0 {
		t.Fatalf("degenerate day: crow served %d, network served %d", crow.Served, netA.Served)
	}
	if reflect.DeepEqual(crow, netA) {
		t.Fatal("WithRoadNetwork settled bit-identical to crow-fly; the metric is not wired into dispatch")
	}
	if !reflect.DeepEqual(netA, netB) {
		t.Fatal("two services with the same RoadNetwork config settled differently")
	}
}

// TestWithRoadNetworkShardWorkerIdentity: under the network metric the
// operational knobs stay purely operational — batched days are
// bit-identical across shard and match-worker counts.
func TestWithRoadNetworkShardWorkerIdentity(t *testing.T) {
	cfg := trace.NewConfig(73, 110, 60, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(5, 0.3, 0.25))

	rn := RoadNetwork{Rows: 12, Cols: 14}
	var want *sim.Result
	for _, sw := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {4, 1}, {1, 4}} {
		shards, workers := sw[0], sw[1]
		t.Run(fmt.Sprintf("shards-%d-workers-%d", shards, workers), func(t *testing.T) {
			opts := []Option{WithSeed(5), WithBatching(45, Hungarian), WithRoadNetwork(rn)}
			if shards > 1 {
				opts = append(opts, WithShards(shards))
			}
			if workers > 1 {
				opts = append(opts, WithMatchWorkers(workers))
			}
			got := settleTrace(t, tr, opts...)
			if want == nil {
				want = got
				if got.Served == 0 {
					t.Fatal("degenerate baseline: nothing served")
				}
				return
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("network-metric day diverged at shards=%d workers=%d: served %d vs %d, revenue %.9f vs %.9f — this is a bug",
					shards, workers, got.Served, want.Served, got.Revenue, want.Revenue)
			}
		})
	}
}

// TestWithRoadNetworkAlgoIdentity: every accepted Algo spelling builds
// the same CH router, so the choice is invisible in the books. Full
// trace replays — instant and batched, across shard and match-worker
// counts, under churn — settle bit-identically under "ch" and the
// legacy "alt" alias.
func TestWithRoadNetworkAlgoIdentity(t *testing.T) {
	cfg := trace.NewConfig(89, 100, 50, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(7, 0.3, 0.25))

	for _, batched := range []bool{false, true} {
		var want *sim.Result
		for _, algo := range []string{"ch", "alt"} {
			for _, sw := range [][2]int{{1, 1}, {2, 2}, {4, 4}} {
				shards, workers := sw[0], sw[1]
				name := fmt.Sprintf("batched-%v-%s-shards-%d-workers-%d", batched, algo, shards, workers)
				opts := []Option{WithSeed(5), WithRoadNetwork(RoadNetwork{Rows: 12, Cols: 14, Algo: algo})}
				if batched {
					opts = append(opts, WithBatching(45, Hungarian))
				}
				if shards > 1 {
					opts = append(opts, WithShards(shards))
				}
				if workers > 1 {
					opts = append(opts, WithMatchWorkers(workers))
				}
				got := settleTrace(t, tr, opts...)
				if want == nil {
					want = got
					if got.Served == 0 {
						t.Fatalf("%s: degenerate baseline: nothing served", name)
					}
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s diverged from the ch baseline: served %d vs %d, revenue %.9f vs %.9f — this is a bug",
						name, got.Served, want.Served, got.Revenue, want.Revenue)
				}
			}
		}
	}
}

// TestDurableRoadNetworkRevocationRestore: under the network metric,
// cancellations that revoke assignments and a crash restored from a
// snapshot plus the log suffix must leave no stale cached home leg
// behind — in instant and batched mode with concurrent zone scoring,
// a day restored mid-flight (right after a revocation, mid-day and
// late) settles bit-identical to the uninterrupted day.
func TestDurableRoadNetworkRevocationRestore(t *testing.T) {
	cfg := trace.NewConfig(89, 200, 40, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(4, 0.3, 0.5))
	market, feed := durFeed(tr)
	rn := RoadNetwork{Rows: 12, Cols: 14, Seed: 2}
	ctx := context.Background()

	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			opts := []Option{WithSeed(7), WithShards(4), WithRoadNetwork(rn)}
			if batched {
				opts = append(opts, WithBatching(45, Hungarian))
			}
			ref, err := New(market, opts...)
			if err != nil {
				t.Fatal(err)
			}
			firstRevoke := -1
			for k, it := range feed {
				if it.isTask || it.kind != model.EventCancel {
					applyFeed(t, ref, tr, feed[k:k+1])
					continue
				}
				out, err := ref.CancelTask(ctx, it.idx, it.at)
				if err != nil {
					t.Fatalf("CancelTask(%d): %v", it.idx, err)
				}
				if out.FreedDriverID >= 0 && firstRevoke < 0 {
					firstRevoke = k
				}
			}
			if firstRevoke < 0 {
				t.Fatal("no cancellation revoked an assignment: the day does not exercise revocation")
			}
			wantStats, err := ref.Close()
			if err != nil {
				t.Fatal(err)
			}

			for _, cut := range []int{firstRevoke + 1, len(feed) / 2, len(feed) - 1} {
				dir := t.TempDir()
				svc, err := New(market, append(opts, WithDurability(dir, DurFsync("interval"), DurSnapshotEvery(8)))...)
				if err != nil {
					t.Fatal(err)
				}
				applyFeed(t, svc, tr, feed[:cut])
				svc = nil // crash: journal abandoned, nothing flushed

				restored, err := Restore(dir)
				if err != nil {
					t.Fatalf("cut %d: Restore: %v", cut, err)
				}
				applyFeed(t, restored, tr, feed[cut:])
				gotStats, err := restored.Close()
				if err != nil {
					t.Fatalf("cut %d: Close: %v", cut, err)
				}
				gotStats.FeedDrops, wantStats.FeedDrops = 0, 0
				if !reflect.DeepEqual(wantStats, gotStats) {
					t.Fatalf("cut %d: stats diverged\nwant %+v\ngot  %+v", cut, wantStats, gotStats)
				}
				if !reflect.DeepEqual(ref.final, restored.final) {
					t.Fatalf("cut %d: settled result diverged (served %d vs %d, profit %.9f vs %.9f)",
						cut, restored.final.Served, ref.final.Served, restored.final.TotalProfit, ref.final.TotalProfit)
				}
			}
		})
	}
}

// TestDurableRoadNetworkAlgoRestore: a journal whose config records the
// legacy "algo":"alt" still restores — the alias keeps its spelling in
// the journal and builds the CH router — and the day restored
// mid-flight settles bit-identical to an uninterrupted "ch" day.
func TestDurableRoadNetworkAlgoRestore(t *testing.T) {
	cfg := trace.NewConfig(97, 80, 30, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	market, feed := durFeed(tr)

	ref, err := New(market, WithSeed(7), WithBatching(45, Hungarian),
		WithRoadNetwork(RoadNetwork{Rows: 12, Cols: 14, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, ref, tr, feed)
	if _, err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rn := RoadNetwork{Rows: 12, Cols: 14, Seed: 2, Algo: "alt"}
	svc, err := New(market, WithSeed(7), WithBatching(45, Hungarian), WithRoadNetwork(rn),
		WithDurability(dir, DurFsync("interval")))
	if err != nil {
		t.Fatal(err)
	}
	cut := len(feed) / 2
	applyFeed(t, svc, tr, feed[:cut])
	svc = nil // crash: journal abandoned, nothing flushed

	restored, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := restored.cfg.roadnet; got == nil || got.Algo != "alt" {
		t.Fatalf("restored service lost the journaled algo: %+v", got)
	}
	if !journalMentions(t, dir, `"algo":"alt"`) {
		t.Fatal(`journal does not record "algo":"alt"; the restore did not exercise the alias`)
	}
	applyFeed(t, restored, tr, feed[cut:])
	if _, err := restored.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.final, restored.final) {
		t.Fatalf("alt restore settled differently from uninterrupted ch day (served %d vs %d, revenue %.9f vs %.9f)",
			restored.final.Served, ref.final.Served, restored.final.Revenue, ref.final.Revenue)
	}
}

// journalMentions reports whether any file of the journal directory
// holds s verbatim.
func journalMentions(t *testing.T, dir, s string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), s) {
			return true
		}
	}
	return false
}

// TestWithDistanceFunc: an arbitrary metric is honored (an inflated
// crow-fly changes the books) but refuses to combine with durability.
func TestWithDistanceFunc(t *testing.T) {
	cfg := trace.NewConfig(79, 70, 30, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)

	inflated := func(a, b Point) float64 {
		return 1.3 * geo.Equirectangular(geo.Point(a), geo.Point(b))
	}
	crow := settleTrace(t, tr, WithSeed(3))
	inf := settleTrace(t, tr, WithSeed(3), WithDistanceFunc(inflated))
	if reflect.DeepEqual(crow, inf) {
		t.Fatal("WithDistanceFunc settled bit-identical to the default metric; the function is not wired in")
	}

	if _, err := New(Market{}, WithDistanceFunc(nil)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("nil distance function: err = %v, want ErrInvalidOption", err)
	}
	if _, err := New(Market{}, WithDistanceFunc(inflated), WithDurability(t.TempDir())); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("WithDistanceFunc + WithDurability: err = %v, want ErrInvalidOption", err)
	}
}

// TestRoadNetworkOptionValidation covers the rejection surface: bad
// grids, bad cache bounds and the mutual exclusion with
// WithDistanceFunc in both orders.
func TestRoadNetworkOptionValidation(t *testing.T) {
	bad := []RoadNetwork{
		{Rows: 1},
		{Cols: 1},
		{Rows: -3, Cols: 10},
		{CacheEntries: -1},
		{Algo: "dijkstra"},
		{Algo: "CH"}, // case-sensitive: the journaled string is canonical
	}
	for _, rn := range bad {
		if _, err := New(Market{}, WithRoadNetwork(rn)); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("WithRoadNetwork(%+v): err = %v, want ErrInvalidOption", rn, err)
		}
	}
	dist := func(a, b Point) float64 { return geo.Equirectangular(geo.Point(a), geo.Point(b)) }
	if _, err := New(Market{}, WithRoadNetwork(RoadNetwork{}), WithDistanceFunc(dist)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("roadnet then distfunc: err = %v, want ErrInvalidOption", err)
	}
	if _, err := New(Market{}, WithDistanceFunc(dist), WithRoadNetwork(RoadNetwork{})); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("distfunc then roadnet: err = %v, want ErrInvalidOption", err)
	}
}

// TestDurableRoadNetworkRestore: the network metric survives a crash.
// A durable WithRoadNetwork service abandoned mid-day and rebuilt with
// Restore — which must regenerate the identical seeded graph from the
// journaled fingerprint — settles bit-identical to an uninterrupted
// in-memory service under the same metric.
func TestDurableRoadNetworkRestore(t *testing.T) {
	cfg := trace.NewConfig(83, 80, 30, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	tr.Events = trace.WithChurn(tr, trace.DefaultChurn(6, 0.3, 0.25))
	market, feed := durFeed(tr)

	rn := RoadNetwork{Rows: 12, Cols: 14, Seed: 2}
	ref, err := New(market, WithSeed(7), WithBatching(45, Hungarian), WithRoadNetwork(rn))
	if err != nil {
		t.Fatal(err)
	}
	applyFeed(t, ref, tr, feed)
	wantStats, err := ref.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{1, len(feed) / 2, len(feed) - 1} {
		dir := t.TempDir()
		svc, err := New(market, WithSeed(7), WithBatching(45, Hungarian), WithRoadNetwork(rn),
			WithDurability(dir, DurFsync("interval")))
		if err != nil {
			t.Fatal(err)
		}
		if got := svc.cfg.roadnet; got == nil || got.Rows != 12 || got.Cols != 14 || got.Seed != 2 || got.CacheEntries == 0 {
			t.Fatalf("cut %d: normalized roadnet config not retained: %+v", cut, got)
		}
		applyFeed(t, svc, tr, feed[:cut])
		svc = nil // crash: journal abandoned, nothing flushed

		restored, err := Restore(dir)
		if err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		if got := restored.cfg.roadnet; got == nil || got.Rows != 12 || got.Cols != 14 || got.Seed != 2 {
			t.Fatalf("cut %d: restored service lost the road network config: %+v", cut, got)
		}
		applyFeed(t, restored, tr, feed[cut:])
		gotStats, err := restored.Close()
		if err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		gotStats.FeedDrops, wantStats.FeedDrops = 0, 0
		if !reflect.DeepEqual(wantStats, gotStats) {
			t.Fatalf("cut %d: stats diverged\nwant %+v\ngot  %+v", cut, wantStats, gotStats)
		}
		if !reflect.DeepEqual(ref.final, restored.final) {
			t.Fatalf("cut %d: settled result diverged (served %d vs %d, revenue %.9f vs %.9f)",
				cut, ref.final.Served, restored.final.Served, ref.final.Revenue, restored.final.Revenue)
		}
	}
}

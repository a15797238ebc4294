package sim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// dijkstraMetric is the router's Dist recomputed through the Dijkstra
// reference: the router's snapping, Graph.ShortestPath between the
// snapped nodes (memoized per node pair), the access legs and the
// crow-fly floor, in Dist's float operation order.
func dijkstraMetric(g *roadnet.Graph, r *roadnet.Router) geo.DistanceFunc {
	var mu sync.Mutex
	memo := make(map[[2]int]float64)
	return func(a, b geo.Point) float64 {
		crow := geo.Equirectangular(a, b)
		u, v := r.NearestNode(a), r.NearestNode(b)
		d := geo.Equirectangular(a, g.Point(u)) + geo.Equirectangular(b, g.Point(v))
		if u != v {
			mu.Lock()
			km, ok := memo[[2]int{u, v}]
			mu.Unlock()
			if !ok {
				km, _ = g.ShortestPath(u, v)
				mu.Lock()
				memo[[2]int{u, v}] = km
				mu.Unlock()
			}
			d += km
		}
		if crow > d {
			d = crow
		}
		return d
	}
}

// TestRoadNetworkMetricDifferential is the network-metric property
// wall: with Market.Dist swapped from crow-fly to the roadnet router,
// an engine day must stay bit-identical across ScanSource and
// ShardedSource × shards {1,2,4} × match workers {1,2,4} × distance
// (the CH router vs the Dijkstra reference) × batched distance hook
// (installed vs absent), under churn and cancellations, for both
// instant and batched dispatch.
// The router's shared cache is exercised concurrently by the match
// workers, so this doubles as a determinism check on the singleflight
// path; the batch-hook dimension pins the one-to-many scoring path to
// the per-pair loop it replaces.
func TestRoadNetworkMetricDifferential(t *testing.T) {
	rcfg := roadnet.DefaultGridConfig()
	rcfg.Rows, rcfg.Cols = 12, 14 // smaller graph, same structure — keeps the sweep fast
	g, err := roadnet.GenerateGrid(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	chRouter := roadnet.NewRouter(g, rcfg.Box, 8)
	dijkstra := dijkstraMetric(g, chRouter)

	// Generate the trace under the network metric so deadlines and
	// prices are feasible for the distances the engine will see.
	cfg := trace.NewConfig(59, 140, 110, trace.Hitchhiking)
	cfg.Market.Dist = chRouter.Dist
	tr := trace.NewGenerator(cfg).Generate(nil)
	events := trace.WithChurn(tr, trace.ChurnConfig{
		Seed: 11, JoinFraction: 0.2, RetireFraction: 0.15, CancelFraction: 0.2,
	})

	type variant struct {
		name     string
		src      func() CandidateSource
		shards   int
		workers  int
		dijkstra bool // measure with the Dijkstra reference instead of the router
		batch    bool // install the one-to-many scoring hook
	}
	var variants []variant
	variants = append(variants, variant{"scan", func() CandidateSource { return nil }, 0, 1, false, false})
	variants = append(variants, variant{"scan", func() CandidateSource { return nil }, 0, 1, false, true})
	variants = append(variants, variant{"scan", func() CandidateSource { return nil }, 0, 1, true, false})
	for _, s := range []int{1, 2, 4} {
		for _, w := range []int{1, 2, 4} {
			s, w := s, w
			variants = append(variants, variant{
				"sharded", func() CandidateSource { return NewShardedSource(s) }, s, w, false, true,
			})
			variants = append(variants, variant{
				"sharded", func() CandidateSource { return NewShardedSource(s) }, s, w, true, false,
			})
		}
	}

	run := func(v variant, batched bool) Result {
		market := cfg.Market
		market.Dist = chRouter.Dist
		if v.dijkstra {
			market.Dist = dijkstra
		}
		if v.batch {
			market.Batch = chRouter
		}
		eng, err := New(market, tr.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetCandidateSource(v.src())
		eng.MatchWorkers = v.workers
		if batched {
			return eng.RunBatchedScenario(tr.Tasks, events, 60, BatchHungarian)
		}
		return eng.RunScenario(tr.Tasks, events, diffMaxMargin{})
	}

	for _, batched := range []bool{false, true} {
		want := run(variants[0], batched)
		if want.Served == 0 {
			t.Fatalf("degenerate baseline (batched=%v): nothing served under network metric", batched)
		}
		for _, v := range variants[1:] {
			if got := run(v, batched); !reflect.DeepEqual(want, got) {
				t.Errorf("batched=%v: %s(shards=%d,workers=%d,dijkstra=%v,batch=%v) diverges from scan under network metric: served %d vs %d, revenue %.9f vs %.9f — this is a bug",
					batched, v.name, v.shards, v.workers, v.dijkstra, v.batch, got.Served, want.Served, got.Revenue, want.Revenue)
			}
		}
	}

	if hits, misses, _ := chRouter.CacheStats(); hits == 0 || misses == 0 {
		t.Errorf("route cache never exercised (hits=%d misses=%d); the network metric was not on the hot path", hits, misses)
	}
}

// TestRoadNetworkMetricChangesOutcome is the companion sanity check:
// the network metric must actually matter. A day dispatched with
// network distances must differ from the same day under crow-fly —
// otherwise the rail is wired to a no-op.
func TestRoadNetworkMetricChangesOutcome(t *testing.T) {
	rcfg := roadnet.DefaultGridConfig()
	rcfg.Rows, rcfg.Cols = 12, 14
	g, err := roadnet.GenerateGrid(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	router := roadnet.NewRouter(g, rcfg.Box, 8)

	crowCfg := trace.NewConfig(61, 120, 90, trace.Hitchhiking)
	tr := trace.NewGenerator(crowCfg).Generate(nil)

	crowEng, err := New(crowCfg.Market, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	crow := crowEng.RunBatched(tr.Tasks, 60, BatchHungarian)

	netMarket := crowCfg.Market
	netMarket.Dist = router.Dist
	netEng, err := New(netMarket, tr.Drivers, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := netEng.RunBatched(tr.Tasks, 60, BatchHungarian)

	if crow.Served == 0 || net.Served == 0 {
		t.Fatalf("degenerate day: crow served %d, net served %d", crow.Served, net.Served)
	}
	if reflect.DeepEqual(crow, net) {
		t.Fatal("network metric produced a bit-identical day to crow-fly; the distance function is not reaching dispatch")
	}
}

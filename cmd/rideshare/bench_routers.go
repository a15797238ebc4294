package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchRouters is the BENCH_10 suite: it prices the contraction-
// hierarchy routing kernel on the default Porto grid, in four legs:
//
//   - preprocess: wall time to build the hierarchy and hub labels;
//   - ptp: cold point-to-point node queries/sec at the kernel level
//     (no route cache), for CH and for its Dijkstra reference
//     (Graph.ShortestPath) on the same pairs;
//   - distmany: the router's one-to-many batch API against a looped
//     Dist over the same ≥ 8-target candidate sets, cache defeated,
//     with bitwise equality of the two result vectors enforced;
//   - day: the same batched dispatch day once per rep on a cold route
//     cache and again on a warmed one, through the full engine with the
//     batched scoring hook installed.
//
// The day must settle bit-identically on cold and warm caches — same
// served and rejected counts, bitwise-equal revenue — and the harness
// errors out unless CH clears 20× Dijkstra on cold point-to-point and
// the batch API beats the looped Dist. Those are the repo's acceptance
// bars, enforced where the numbers are made rather than in a
// post-processing script.
func benchRouters(out string, tasks int, driverCounts []int, reps int, seed int64,
	window float64, algo sim.BatchAlgorithm, cache int) error {
	report := benchReport{
		Schema:     "rideshare-bench/v1",
		Command:    fmt.Sprintf("rideshare bench -roadnet -router -batch-window %g", window),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Reps:       reps,
	}

	g, err := roadnet.GenerateGrid(roadnet.DefaultGridConfig())
	if err != nil {
		return fmt.Errorf("bench: roadnet graph: %w", err)
	}
	n := g.NumNodes()

	// Deterministic query workloads shared by every kernel. The ptp
	// pairs stride over the whole grid; the candidate sets model an
	// order's scoring batch — one origin against 15 targets, above the
	// engine's own ≥ 8 batching threshold.
	var pairs [][2]int
	for u := 0; u < n; u++ {
		v := (u*7 + 13) % n
		if u != v {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	const numSets, setSize = 32, 15
	type candSet struct {
		origin  geo.Point
		targets []geo.Point
	}
	sets := make([]candSet, numSets)
	for i := range sets {
		sets[i].origin = g.Point((i * 37) % n)
		for j := 0; j < setSize; j++ {
			sets[i].targets = append(sets[i].targets, g.Point((i*17+j*29+5)%n))
		}
	}

	// medianSec times fn reps times and returns the median seconds.
	medianSec := func(fn func()) float64 {
		times := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			start := time.Now()
			fn()
			times = append(times, time.Since(start).Seconds())
		}
		sort.Float64s(times)
		return times[len(times)/2]
	}

	// Preprocess leg: the hierarchy build alone, on the shared graph.
	// The snap grid and route cache are excluded.
	var h *roadnet.Hierarchy
	prepSec := medianSec(func() { h = roadnet.BuildHierarchy(g) })
	report.Results = append(report.Results, benchResult{
		Name:              "routers/preprocess/ch",
		Router:            "ch",
		PreprocessSeconds: prepSec,
	})
	fmt.Fprintf(os.Stderr, "%-52s %10.4fs preprocessing\n", "routers/preprocess/ch", prepSec)

	// Point-to-point legs: the raw kernels, no route cache, every query
	// cold.
	qps := make(map[string]float64)
	for _, k := range []struct {
		name  string
		query func(u, v int)
	}{
		{"dijkstra", func(u, v int) { g.ShortestPath(u, v) }},
		{"ch", func(u, v int) { h.Query(u, v) }},
	} {
		sec := medianSec(func() {
			for _, p := range pairs {
				k.query(p[0], p[1])
			}
		})
		qps[k.name] = float64(len(pairs)) / sec
		name := "routers/ptp/" + k.name
		report.Results = append(report.Results, benchResult{
			Name:          name,
			Router:        k.name,
			Seconds:       sec,
			QueriesPerSec: qps[k.name],
		})
		fmt.Fprintf(os.Stderr, "%-52s %10.0f queries/s cold point-to-point\n", name, qps[k.name])
	}
	if ratio := qps["ch"] / qps["dijkstra"]; ratio < 20 {
		return fmt.Errorf("bench: CH cold point-to-point %.2fx Dijkstra, want ≥ 20x — the hierarchy is not earning its preprocessing", ratio)
	}

	// One-to-many leg: the router's batch API against a looped Dist
	// over the same candidate sets. A one-entry cache bound defeats
	// memoization so both sides pay the routing, not map lookups.
	router := roadnet.NewRouter(g, roadnet.DefaultGridConfig().Box, 0)
	router.SetCacheBound(1)
	batchOut := make([]float64, setSize)
	loopOut := make([]float64, setSize)
	for _, s := range sets {
		router.DistManyInto(s.origin, s.targets, batchOut)
		for j, t := range s.targets {
			loopOut[j] = router.Dist(s.origin, t)
		}
		for j := range s.targets {
			if batchOut[j] != loopOut[j] {
				return fmt.Errorf("bench: DistMany[%d] = %.17g, looped Dist = %.17g — the batch API broke bitwise equality, this is a bug",
					j, batchOut[j], loopOut[j])
			}
		}
	}
	manySec := medianSec(func() {
		for _, s := range sets {
			router.DistManyInto(s.origin, s.targets, batchOut)
		}
	})
	loopSec := medianSec(func() {
		for _, s := range sets {
			for j, t := range s.targets {
				loopOut[j] = router.Dist(s.origin, t)
			}
		}
	})
	report.Results = append(report.Results, benchResult{
		Name:            "routers/distmany/ch",
		Router:          "ch",
		Seconds:         manySec,
		DistManySpeedup: loopSec / manySec,
	})
	fmt.Fprintf(os.Stderr, "%-52s %10.2fx one-to-many vs looped Dist (%d-target sets)\n",
		"routers/distmany/ch", loopSec/manySec, setSize)
	if loopSec/manySec <= 1 {
		return fmt.Errorf("bench: CH DistMany %.2fx vs looped Dist on %d-target sets — the batch API does not pay for itself", loopSec/manySec, setSize)
	}

	// Day legs: the full engine with the network metric and the batched
	// scoring hook, once per rep on a cold route cache (fresh router)
	// and again on the warmed cache. Results must be bit-identical
	// across cache temperature.
	const shards, workers = 4, 4
	for _, drivers := range driverCounts {
		cfg := trace.NewConfig(seed, tasks, drivers, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		runDay := func(router *roadnet.Router) (sim.Result, error) {
			mkt := cfg.Market
			mkt.Dist = router.Dist
			mkt.Batch = router
			eng, err := sim.New(mkt, tr.Drivers, 1)
			if err != nil {
				return sim.Result{}, err
			}
			eng.SetCandidateSource(sim.NewShardedSource(shards))
			eng.MatchWorkers = workers
			return eng.RunBatched(tr.Tasks, window, algo), nil
		}

		var coldRes sim.Result
		var warm *roadnet.Router
		var err error
		coldSec := medianSec(func() {
			if err != nil {
				return
			}
			warm = roadnet.NewRouter(g, roadnet.DefaultGridConfig().Box, 0)
			if cache > 0 {
				warm.SetCacheBound(cache)
			}
			coldRes, err = runDay(warm)
		})
		if err != nil {
			return err
		}

		// Warm leg: the last cold rep's router keeps its populated
		// cache; only the hit counters are zeroed between reps so the
		// recorded hit rate describes a warm rep alone.
		var warmRes sim.Result
		var hitRate float64
		firstWarm := true
		warmSec := medianSec(func() {
			if err != nil {
				return
			}
			warm.ResetCacheStats()
			warmRes, err = runDay(warm)
			if hits, misses, _ := warm.CacheStats(); firstWarm && hits+misses > 0 {
				hitRate = float64(hits) / float64(hits+misses)
			}
			firstWarm = false
		})
		if err != nil {
			return err
		}

		if !reflect.DeepEqual(coldRes, warmRes) {
			return fmt.Errorf("bench: day diverged between cold and warm cache at %d drivers: served %d vs %d, revenue %.9f vs %.9f — this is a bug",
				drivers, coldRes.Served, warmRes.Served, coldRes.Revenue, warmRes.Revenue)
		}

		name := fmt.Sprintf("routers/day/drivers=%d/ch", drivers)
		report.Results = append(report.Results, benchResult{
			Name:    name,
			Drivers: drivers, Tasks: tasks,
			Source: "sharded", Shards: shards, Workers: workers,
			Router: "ch", Metric: "network",
			Seconds:         coldSec,
			TasksPerSec:     float64(tasks) / coldSec,
			ColdTasksPerSec: float64(tasks) / coldSec,
			WarmTasksPerSec: float64(tasks) / warmSec,
			CacheHitRate:    hitRate,
			Served:          coldRes.Served,
			Revenue:         coldRes.Revenue,
		})
		fmt.Fprintf(os.Stderr, "%-52s cold %8.0f tasks/s  warm %8.0f tasks/s  served %d\n",
			name, float64(tasks)/coldSec, float64(tasks)/warmSec, coldRes.Served)
	}

	return writeBenchReport(out, report)
}

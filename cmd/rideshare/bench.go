package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/dispatch"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// cmdBench is the repository's perf trajectory recorder: it times one
// full online day of maxMargin dispatch at city-fleet driver counts
// under every candidate source — the sequential linear scan and the
// zone-sharded engine at each shard count (one shard is the plain grid
// index) — and writes the measurements as machine-readable JSON so
// future changes have a baseline to diff against. Every configuration
// must produce identical market outcomes; the harness errors out if any
// diverges, doubling as an end-to-end differential check.

// benchResult is one timed configuration in the JSON output.
type benchResult struct {
	Name        string  `json:"name"`
	Drivers     int     `json:"drivers"`
	Tasks       int     `json:"tasks"`
	Source      string  `json:"source"`
	Shards      int     `json:"shards,omitempty"`
	Mode        string  `json:"mode,omitempty"` // batch | streaming (streaming suite only)
	Workers     int     `json:"workers,omitempty"`
	Seconds     float64 `json:"seconds"` // median over -reps runs
	TasksPerSec float64 `json:"tasks_per_sec"`
	Served      int     `json:"served"`
	Speedup     float64 `json:"speedup_vs_scan,omitempty"`
	// Overhead is the streaming replay's extra wall time over the batch
	// drain of the same day and source: seconds/batchSeconds − 1.
	Overhead float64 `json:"overhead_vs_batch,omitempty"`
	// Allocation accounting over the timed region (runtime.MemStats
	// deltas, median over -reps runs), normalized per submitted task.
	AllocsPerTask float64 `json:"allocs_per_task,omitempty"`
	BytesPerTask  float64 `json:"bytes_per_task,omitempty"`
	// The -maxprocs sweep's column family: the GOMAXPROCS value this
	// leg ran under, the day's revenue (part of the cross-leg identity
	// check), per-decision wall-latency percentiles, and the speedup
	// over the sweep's first leg (procs=1 when the sweep includes it).
	GoMaxProcs      int                   `json:"go_maxprocs,omitempty"`
	Revenue         float64               `json:"revenue,omitempty"`
	Latency         *stats.LatencySummary `json:"latency,omitempty"`
	SpeedupVsProcs1 float64               `json:"speedup_vs_procs1,omitempty"`
	// The -durable suite's column family: the journal's fsync policy
	// (with Overhead measured against the in-memory baseline), the
	// snapshot cadence of a recovery leg, and the log's on-disk size.
	Fsync         string `json:"fsync,omitempty"`
	SnapshotEvery int    `json:"snapshot_every,omitempty"`
	WALBytes      int64  `json:"wal_bytes,omitempty"`
	// The -roadnet suite's column family: which distance metric the leg
	// ran under, the street graph's measured circuity (network over
	// crow-fly distance across sampled node pairs), the route cache's
	// cold-day hit rate, and the leg's revenue relative to the crow-fly
	// baseline at the same fleet size.
	Metric             string  `json:"metric,omitempty"`
	Circuity           float64 `json:"circuity,omitempty"`
	CacheHitRate       float64 `json:"cache_hit_rate,omitempty"`
	RevenueDeltaVsCrow float64 `json:"revenue_delta_vs_crowfly,omitempty"`
	// The -router suite's column family (BENCH_10): the routing kernel a
	// leg ran on (ch, or its dijkstra reference), CH preprocessing wall
	// time, cold point-to-point queries/sec, the one-to-many batch API's
	// speedup over a looped Dist on the same candidate sets, and the
	// batched day's throughput under a cold route cache next to a
	// warmed one.
	Router            string  `json:"router,omitempty"`
	PreprocessSeconds float64 `json:"preprocess_seconds,omitempty"`
	QueriesPerSec     float64 `json:"queries_per_sec,omitempty"`
	DistManySpeedup   float64 `json:"distmany_speedup_vs_looped,omitempty"`
	ColdTasksPerSec   float64 `json:"cold_tasks_per_sec,omitempty"`
	WarmTasksPerSec   float64 `json:"warm_tasks_per_sec,omitempty"`
}

// benchReport is the top-level JSON document.
type benchReport struct {
	Schema     string        `json:"schema"`
	Command    string        `json:"command"`
	GoMaxProcs int           `json:"go_maxprocs"`
	NumCPU     int           `json:"num_cpu,omitempty"`
	Reps       int           `json:"reps"`
	Results    []benchResult `json:"results"`
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad list entry %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("out", "", "output JSON file (- for stdout; default BENCH_2.json, BENCH_3.json with -streaming, BENCH_4.json with -batched, BENCH_5.json with -windows, BENCH_7.json with -oracle, BENCH_8.json with -durable, BENCH_9.json with -roadnet, or BENCH_10.json with -roadnet -router)")
	tasks := fs.Int("tasks", 1000, "orders per simulated day")
	driversList := fs.String("drivers", "10000,50000", "comma-separated fleet sizes")
	shardsList := fs.String("shards", "1,2,4,8", "comma-separated shard counts to time")
	reps := fs.Int("reps", 3, "runs per configuration (median reported)")
	seed := fs.Int64("seed", 27, "trace seed")
	streaming := fs.Bool("streaming", false, "measure streaming overhead: batch drain vs dispatch.Service replay of the same day")
	batched := fs.Bool("batched", false, "measure streaming-batched overhead: Engine.RunBatched drain vs a WithBatching dispatch.Service replay of the same day")
	windows := fs.Bool("windows", false, "measure the sparse component-decomposed window solve of a batched day, serially and at -match-workers, with per-task allocation accounting")
	oracle := fs.Bool("oracle", false, "run the offline-optimum oracle suite: three online policies vs the warm-started sparse branch and bound on the same churned day, with a {1,2,4}-worker determinism sweep")
	durable := fs.Bool("durable", false, "price the durability rail: the same batched day in-memory vs journaled under each fsync policy, plus Restore timings per snapshot cadence")
	roadnetSuite := fs.Bool("roadnet", false, "price the road-network distance rail: the same batched day under crow-fly vs street-graph shortest paths vs network+live-surge on a spiked trace, with a shard × match-worker identity sweep per leg")
	routerSuite := fs.Bool("router", false, "with -roadnet, run the routing-kernel suite instead: CH preprocessing, cold point-to-point queries against Dijkstra, one-to-many batching, and a cold- vs warm-cache batched day; writes BENCH_10.json by default")
	roadnetCache := fs.Int("roadnet-cache", 0, "route-cache bound in memoized node pairs for the -roadnet suites (0 = default)")
	snapIntervalsList := fs.String("snap-intervals", "16,256,4096", "comma-separated snapshot cadences for the -durable suite's recovery legs")
	churn := fs.Float64("churn", 0.2, "driver churn fraction for the -oracle suite")
	cancel := fs.Float64("cancel", 0.15, "rider cancellation fraction for the -oracle suite")
	topk := fs.Int("topk", 8, "rail top-k column pruning for the -oracle suite's hindsight compile (0 = exact, small days only)")
	batchWindow := fs.Float64("batch-window", 60, "window seconds for the -batched and -windows suites")
	batchAlgo := fs.String("batch-algo", "hungarian", "batch solver for the -batched and -windows suites: hungarian or auction")
	matchWorkers := fs.Int("match-workers", 1, "component-solver goroutines for the -windows suite's sparse leg")
	maxprocsList := fs.String("maxprocs", "", "comma-separated GOMAXPROCS legs to sweep (0 = all CPUs); pairs with -windows or -batched, adds per-decision latency percentiles, and writes BENCH_6.json by default")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("bench: unexpected argument %q", fs.Arg(0))
	}
	// A sweep scales the component solver with the leg's GOMAXPROCS
	// unless the user pinned -match-workers explicitly.
	workersSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "match-workers" {
			workersSet = true
		}
	})
	if err := checkPositive("bench", map[string]int{"-tasks": *tasks, "-reps": *reps, "-match-workers": *matchWorkers}); err != nil {
		return err
	}
	if err := checkBatchWindow("bench", *batchWindow); err != nil {
		return err
	}
	if *batched && *batchWindow == 0 {
		return fmt.Errorf("bench: -batched needs a positive -batch-window, got %g", *batchWindow)
	}
	if *windows && *batchWindow == 0 {
		return fmt.Errorf("bench: -windows needs a positive -batch-window, got %g", *batchWindow)
	}
	suites := 0
	for _, on := range []bool{*streaming, *batched, *windows, *oracle, *durable, *roadnetSuite} {
		if on {
			suites++
		}
	}
	if suites > 1 {
		return fmt.Errorf("bench: -streaming, -batched, -windows, -oracle, -durable and -roadnet are separate suites; pick one")
	}
	if *roadnetSuite && *batchWindow == 0 {
		return fmt.Errorf("bench: -roadnet needs a positive -batch-window, got %g", *batchWindow)
	}
	if *routerSuite && !*roadnetSuite {
		return fmt.Errorf("bench: -router pairs with -roadnet")
	}
	if *roadnetCache < 0 {
		return fmt.Errorf("bench: -roadnet-cache %d, want ≥ 0", *roadnetCache)
	}
	if !*roadnetSuite {
		cacheSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "roadnet-cache" {
				cacheSet = true
			}
		})
		if cacheSet {
			return fmt.Errorf("bench: -roadnet-cache pairs with -roadnet")
		}
	}
	var snapIntervals []int
	if *durable {
		if *batchWindow == 0 {
			return fmt.Errorf("bench: -durable needs a positive -batch-window, got %g", *batchWindow)
		}
		var err error
		if snapIntervals, err = parseIntList(*snapIntervalsList); err != nil {
			return fmt.Errorf("bench: -snap-intervals: %w", err)
		}
		for _, v := range snapIntervals {
			if v < 1 {
				return fmt.Errorf("bench: -snap-intervals entries must be ≥ 1, got %d", v)
			}
		}
	} else {
		snapSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "snap-intervals" {
				snapSet = true
			}
		})
		if snapSet {
			return fmt.Errorf("bench: -snap-intervals pairs with -durable")
		}
	}
	if *oracle {
		if *churn < 0 || *churn > 1 || *cancel < 0 || *cancel > 1 {
			return fmt.Errorf("bench: -churn and -cancel must be in [0,1], got %g and %g", *churn, *cancel)
		}
		if *topk < 0 {
			return fmt.Errorf("bench: -topk must be ≥ 0, got %d", *topk)
		}
		if *batchWindow == 0 {
			return fmt.Errorf("bench: -oracle needs a positive -batch-window, got %g", *batchWindow)
		}
	}
	var procs []int
	if *maxprocsList != "" {
		if !*windows && !*batched {
			return fmt.Errorf("bench: -maxprocs sweeps the -windows or -batched suite; pick one of those")
		}
		raw, err := parseIntList(*maxprocsList)
		if err != nil {
			return fmt.Errorf("bench: -maxprocs: %w", err)
		}
		seen := make(map[int]bool)
		for _, p := range raw {
			if p < 0 {
				return fmt.Errorf("bench: -maxprocs entries must be ≥ 0 (0 = all CPUs), got %d", p)
			}
			if p == 0 {
				p = runtime.NumCPU()
			}
			if !seen[p] {
				seen[p] = true
				procs = append(procs, p)
			}
		}
	}
	batchPolicy, err := dispatch.ParseBatchAlgorithm(*batchAlgo)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	driverCounts, err := parseIntList(*driversList)
	if err != nil {
		return fmt.Errorf("bench: -drivers: %w", err)
	}
	shardCounts, err := parseIntList(*shardsList)
	if err != nil {
		return fmt.Errorf("bench: -shards: %w", err)
	}
	for _, v := range driverCounts {
		if v < 1 {
			return fmt.Errorf("bench: -drivers entries must be ≥ 1, got %d", v)
		}
	}
	for _, v := range shardCounts {
		if v < 1 {
			return fmt.Errorf("bench: -shards entries must be ≥ 1, got %d", v)
		}
	}
	if *out == "" {
		*out = "BENCH_2.json"
		if *streaming {
			*out = "BENCH_3.json"
		}
		if *batched {
			*out = "BENCH_4.json"
		}
		if *windows {
			*out = "BENCH_5.json"
		}
		if len(procs) > 0 {
			*out = "BENCH_6.json"
		}
		if *oracle {
			*out = "BENCH_7.json"
		}
		if *durable {
			*out = "BENCH_8.json"
		}
		if *roadnetSuite {
			*out = "BENCH_9.json"
			if *routerSuite {
				*out = "BENCH_10.json"
			}
		}
	}
	if *roadnetSuite {
		simAlgo := sim.BatchHungarian
		if batchPolicy == dispatch.Auction {
			simAlgo = sim.BatchAuction
		}
		if *routerSuite {
			return benchRouters(*out, *tasks, driverCounts, *reps, *seed, *batchWindow, simAlgo, *roadnetCache)
		}
		return benchRoadnet(*out, *tasks, driverCounts, *reps, *seed, *batchWindow, simAlgo, *roadnetCache)
	}
	if *durable {
		return benchDurable(*out, *tasks, driverCounts, *reps, *seed,
			*batchWindow, batchPolicy, snapIntervals)
	}
	if *oracle {
		return benchOracle(*out, *tasks, driverCounts, *reps, *seed,
			*batchWindow, *churn, *cancel, *topk, *matchWorkers)
	}
	if len(procs) > 0 {
		if *windows {
			return benchWindowsMaxprocs(*out, *tasks, driverCounts, shardCounts, *reps, *seed,
				*batchWindow, batchPolicy, *matchWorkers, workersSet, procs)
		}
		return benchBatchedMaxprocs(*out, *tasks, driverCounts, shardCounts, *reps, *seed,
			*batchWindow, batchPolicy, *matchWorkers, workersSet, procs)
	}
	if *streaming {
		return benchStreaming(*out, *tasks, driverCounts, shardCounts, *reps, *seed)
	}
	if *batched {
		return benchBatched(*out, *tasks, driverCounts, shardCounts, *reps, *seed, *batchWindow, batchPolicy)
	}
	if *windows {
		return benchWindows(*out, *tasks, driverCounts, shardCounts, *reps, *seed, *batchWindow, batchPolicy, *matchWorkers)
	}

	report := benchReport{
		Schema:     "rideshare-bench/v1",
		Command:    "rideshare bench",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       *reps,
	}

	for _, drivers := range driverCounts {
		cfg := trace.NewConfig(*seed, *tasks, drivers, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)

		type config struct {
			source string
			shards int
			mk     func() sim.CandidateSource
		}
		configs := []config{
			{"scan", 0, func() sim.CandidateSource { return nil }},
		}
		for _, s := range shardCounts {
			s := s
			configs = append(configs, config{"sharded", s,
				func() sim.CandidateSource { return sim.NewShardedSource(s) }})
		}

		baseline := -1.0
		var baselineServed int
		for _, c := range configs {
			eng, err := sim.New(cfg.Market, tr.Drivers, 1)
			if err != nil {
				return err
			}
			if src := c.mk(); src != nil {
				eng.SetCandidateSource(src)
			}
			times := make([]float64, 0, *reps)
			var res sim.Result
			for r := 0; r < *reps; r++ {
				start := time.Now()
				res = eng.Run(tr.Tasks, online.MaxMargin{})
				times = append(times, time.Since(start).Seconds())
			}
			sort.Float64s(times)
			median := times[len(times)/2]

			if c.source == "scan" {
				baseline = median
				baselineServed = res.Served
			} else if res.Served != baselineServed {
				return fmt.Errorf("bench: %s served %d, scan served %d — results diverged, this is a bug",
					c.source, res.Served, baselineServed)
			}
			name := fmt.Sprintf("dispatch/drivers=%d/%s", drivers, c.source)
			if c.shards > 0 {
				name = fmt.Sprintf("%s-%d", name, c.shards)
			}
			report.Results = append(report.Results, benchResult{
				Name: name, Drivers: drivers, Tasks: *tasks,
				Source: c.source, Shards: c.shards,
				Seconds:     median,
				TasksPerSec: float64(*tasks) / median,
				Served:      res.Served,
				Speedup:     baseline / median,
			})
			fmt.Fprintf(os.Stderr, "%-40s %8.3fs  %8.0f tasks/s  %.2fx vs scan\n",
				name, median, float64(*tasks)/median, baseline/median)
		}
	}

	return writeBenchReport(*out, report)
}

// writeBenchReport encodes the report to the output file ("-" for
// stdout).
func writeBenchReport(out string, report benchReport) error {
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d results)\n", out, len(report.Results))
	}
	return nil
}

// benchStreaming measures what promoting the engine to an open-loop
// service costs: the same full day of maxMargin dispatch is timed as a
// batch drain (Engine.RunScenario) and as an event-by-event replay
// through the public dispatch.Service, per candidate source. The two
// must serve identical task counts (the streaming differential
// guarantee, checked here end to end); the interesting number is the
// overhead column, which prices the Service's per-event costs — heap
// pushes, ID mapping, feed publication, locking — against the batch
// drain's.
func benchStreaming(out string, tasks int, driverCounts, shardCounts []int, reps int, seed int64) error {
	report := benchReport{
		Schema:     "rideshare-bench/v1",
		Command:    "rideshare bench -streaming",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
	}
	ctx := context.Background()
	for _, drivers := range driverCounts {
		cfg := trace.NewConfig(seed, tasks, drivers, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)

		// Public-typed view of the same day, tasks in publish order —
		// the canonical streaming feed for an event-free trace.
		market := dispatch.Market{}
		for i, d := range tr.Drivers {
			market.Drivers = append(market.Drivers, toDispatchDriver(i, d))
		}
		feed := make([]dispatch.Task, len(tr.Tasks))
		for i, t := range tr.Tasks {
			feed[i] = toDispatchTask(i, t)
		}
		sort.SliceStable(feed, func(a, b int) bool { return feed[a].Publish < feed[b].Publish })

		type config struct {
			source string
			shards int
		}
		// Shard count 1 is the engine default on both sides (the public
		// WithShards(1) selects the plain scan), so a sharded-1 pair
		// would time two different candidate sources against each other
		// and contaminate the overhead column; the scan pair already
		// covers that configuration.
		configs := []config{{"scan", 0}}
		for _, s := range shardCounts {
			if s < 2 {
				fmt.Fprintf(os.Stderr, "bench: -streaming skips shard count %d (identical to the scan pair)\n", s)
				continue
			}
			configs = append(configs, config{"sharded", s})
		}
		for _, c := range configs {
			mkSource := func() sim.CandidateSource {
				if c.shards > 0 {
					return sim.NewShardedSource(c.shards)
				}
				return nil
			}
			// Batch drain.
			eng, err := sim.New(cfg.Market, tr.Drivers, 1)
			if err != nil {
				return err
			}
			if src := mkSource(); src != nil {
				eng.SetCandidateSource(src)
			}
			var batchRes sim.Result
			batchTimes := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				start := time.Now()
				batchRes = eng.RunScenario(tr.Tasks, nil, online.MaxMargin{})
				batchTimes = append(batchTimes, time.Since(start).Seconds())
			}
			sort.Float64s(batchTimes)
			batchSec := batchTimes[len(batchTimes)/2]

			// Streaming replay. The timed region is the whole service
			// transaction — construction, every submission, Close — so
			// the overhead includes everything a real front end pays.
			opts := []dispatch.Option{
				dispatch.WithDispatcher(dispatch.MaxMargin),
				dispatch.WithSeed(1), dispatch.WithStrictTimes(),
			}
			if c.shards > 1 {
				opts = append(opts, dispatch.WithShards(c.shards))
			}
			var streamStats dispatch.Stats
			streamTimes := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				start := time.Now()
				svc, err := dispatch.New(market, opts...)
				if err != nil {
					return fmt.Errorf("bench: streaming service: %w", err)
				}
				for i := range feed {
					if _, err := svc.SubmitTask(ctx, feed[i]); err != nil {
						return fmt.Errorf("bench: streaming submit %d: %w", feed[i].ID, err)
					}
				}
				streamStats, err = svc.Close()
				if err != nil {
					return err
				}
				streamTimes = append(streamTimes, time.Since(start).Seconds())
			}
			sort.Float64s(streamTimes)
			streamSec := streamTimes[len(streamTimes)/2]

			if streamStats.Served != batchRes.Served {
				return fmt.Errorf("bench: streaming served %d, batch served %d — replay diverged, this is a bug",
					streamStats.Served, batchRes.Served)
			}

			base := fmt.Sprintf("streaming/drivers=%d/%s", drivers, c.source)
			if c.shards > 0 {
				base = fmt.Sprintf("%s-%d", base, c.shards)
			}
			overhead := streamSec/batchSec - 1
			report.Results = append(report.Results,
				benchResult{
					Name: base + "/batch", Drivers: drivers, Tasks: tasks,
					Source: c.source, Shards: c.shards, Mode: "batch",
					Seconds: batchSec, TasksPerSec: float64(tasks) / batchSec,
					Served: batchRes.Served,
				},
				benchResult{
					Name: base + "/service", Drivers: drivers, Tasks: tasks,
					Source: c.source, Shards: c.shards, Mode: "streaming",
					Seconds: streamSec, TasksPerSec: float64(tasks) / streamSec,
					Served: streamStats.Served, Overhead: overhead,
				})
			fmt.Fprintf(os.Stderr, "%-44s batch %7.3fs  service %7.3fs  overhead %+.1f%%\n",
				base, batchSec, streamSec, 100*overhead)
		}
	}
	return writeBenchReport(out, report)
}

// benchBatched prices the tentpole promotion of window matching to the
// open-loop API: the same full day of batched dispatch is timed as an
// engine drain (Engine.RunBatched) and as a submission-by-submission
// replay through a dispatch.Service built WithBatching, per candidate
// source. The pairs must serve identical task counts (the batched
// streaming differential guarantee, checked here end to end); the
// overhead column prices the service's per-event costs on top of the
// window matching itself.
func benchBatched(out string, tasks int, driverCounts, shardCounts []int, reps int, seed int64,
	window float64, algo dispatch.BatchAlgorithm) error {
	simAlgo := sim.BatchHungarian
	if algo == dispatch.Auction {
		simAlgo = sim.BatchAuction
	}
	report := benchReport{
		Schema:     "rideshare-bench/v1",
		Command:    fmt.Sprintf("rideshare bench -batched -batch-window %g -batch-algo %v", window, algo),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
	}
	ctx := context.Background()
	for _, drivers := range driverCounts {
		cfg := trace.NewConfig(seed, tasks, drivers, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)

		market := dispatch.Market{}
		for i, d := range tr.Drivers {
			market.Drivers = append(market.Drivers, toDispatchDriver(i, d))
		}
		feed := make([]dispatch.Task, len(tr.Tasks))
		for i, t := range tr.Tasks {
			feed[i] = toDispatchTask(i, t)
		}
		sort.SliceStable(feed, func(a, b int) bool { return feed[a].Publish < feed[b].Publish })

		type config struct {
			source string
			shards int
		}
		configs := []config{{"scan", 0}}
		for _, s := range shardCounts {
			if s < 2 {
				fmt.Fprintf(os.Stderr, "bench: -batched skips shard count %d (identical to the scan pair)\n", s)
				continue
			}
			configs = append(configs, config{"sharded", s})
		}
		for _, c := range configs {
			// Engine drain.
			eng, err := sim.New(cfg.Market, tr.Drivers, 1)
			if err != nil {
				return err
			}
			if c.shards > 0 {
				eng.SetCandidateSource(sim.NewShardedSource(c.shards))
			}
			var batchRes sim.Result
			batchTimes := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				start := time.Now()
				batchRes = eng.RunBatched(tr.Tasks, window, simAlgo)
				batchTimes = append(batchTimes, time.Since(start).Seconds())
			}
			sort.Float64s(batchTimes)
			batchSec := batchTimes[len(batchTimes)/2]

			// Streaming-batched replay: construction, every submission
			// (each answered pending), Close deciding the final window.
			opts := []dispatch.Option{
				dispatch.WithBatching(window, algo),
				dispatch.WithSeed(1), dispatch.WithStrictTimes(),
			}
			if c.shards > 1 {
				opts = append(opts, dispatch.WithShards(c.shards))
			}
			var streamStats dispatch.Stats
			streamTimes := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				start := time.Now()
				svc, err := dispatch.New(market, opts...)
				if err != nil {
					return fmt.Errorf("bench: batched service: %w", err)
				}
				for i := range feed {
					a, err := svc.SubmitTask(ctx, feed[i])
					if err != nil {
						return fmt.Errorf("bench: batched submit %d: %w", feed[i].ID, err)
					}
					if !a.Pending {
						return fmt.Errorf("bench: batched submit %d answered instantly", feed[i].ID)
					}
				}
				streamStats, err = svc.Close()
				if err != nil {
					return err
				}
				streamTimes = append(streamTimes, time.Since(start).Seconds())
			}
			sort.Float64s(streamTimes)
			streamSec := streamTimes[len(streamTimes)/2]

			if streamStats.Served != batchRes.Served {
				return fmt.Errorf("bench: batched service served %d, engine served %d — replay diverged, this is a bug",
					streamStats.Served, batchRes.Served)
			}

			base := fmt.Sprintf("batched/drivers=%d/%s", drivers, c.source)
			if c.shards > 0 {
				base = fmt.Sprintf("%s-%d", base, c.shards)
			}
			overhead := streamSec/batchSec - 1
			report.Results = append(report.Results,
				benchResult{
					Name: base + "/engine", Drivers: drivers, Tasks: tasks,
					Source: c.source, Shards: c.shards, Mode: "batch",
					Seconds: batchSec, TasksPerSec: float64(tasks) / batchSec,
					Served: batchRes.Served,
				},
				benchResult{
					Name: base + "/service", Drivers: drivers, Tasks: tasks,
					Source: c.source, Shards: c.shards, Mode: "streaming",
					Seconds: streamSec, TasksPerSec: float64(tasks) / streamSec,
					Served: streamStats.Served, Overhead: overhead,
				})
			fmt.Fprintf(os.Stderr, "%-44s engine %7.3fs  service %7.3fs  overhead %+.1f%%\n",
				base, batchSec, streamSec, 100*overhead)
		}
	}
	return writeBenchReport(out, report)
}

// benchWindows prices the sparse component-decomposed window solve on
// the same batched day, on the sharded candidate source, with
// runtime.MemStats deltas recording the allocation bill of each run: a
// serial leg, plus a leg at -match-workers when that is above 1, which
// must settle a bit-identical Result. (The dense whole-matrix solve it
// replaced is now a test oracle; BENCH_5.json keeps its numbers.)
//
// Note the workload: windows only earn their keep when they hold more
// than one order, so this suite defaults to a denser day than the
// BENCH_2–BENCH_4 trajectory (scripts/bench.sh passes -tasks/-batch-
// window sized for ~15-order windows).
func benchWindows(out string, tasks int, driverCounts, shardCounts []int, reps int, seed int64,
	window float64, algo dispatch.BatchAlgorithm, workers int) error {
	simAlgo := sim.BatchHungarian
	if algo == dispatch.Auction {
		simAlgo = sim.BatchAuction
	}
	// One sharded source configuration: the largest requested shard
	// count (the fastest candidate generator, so it dilutes the window
	// solve's share least). Say so when the -shards list asked for more
	// than one.
	shards := maxShards(shardCounts)
	if len(shardCounts) > 1 {
		fmt.Fprintf(os.Stderr, "bench: -windows times one candidate source; using sharded-%d (the largest of -shards %v)\n",
			shards, shardCounts)
	}
	report := benchReport{
		Schema:     "rideshare-bench/v1",
		Command:    fmt.Sprintf("rideshare bench -windows -batch-window %g -batch-algo %v -match-workers %d", window, algo, workers),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
	}
	legWorkers := []int{1}
	if workers > 1 {
		legWorkers = append(legWorkers, workers)
	}
	for _, drivers := range driverCounts {
		cfg := trace.NewConfig(seed, tasks, drivers, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)

		var serialRes sim.Result
		for _, w := range legWorkers {
			eng, err := sim.New(cfg.Market, tr.Drivers, 1)
			if err != nil {
				return err
			}
			if shards > 1 {
				eng.SetCandidateSource(sim.NewShardedSource(shards))
			}
			eng.MatchWorkers = w

			var res sim.Result
			times := make([]float64, 0, reps)
			allocs := make([]float64, 0, reps)
			bytes := make([]float64, 0, reps)
			var m0, m1 runtime.MemStats
			for r := 0; r < reps; r++ {
				runtime.GC()
				runtime.ReadMemStats(&m0)
				start := time.Now()
				res = eng.RunBatched(tr.Tasks, window, simAlgo)
				times = append(times, time.Since(start).Seconds())
				runtime.ReadMemStats(&m1)
				allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(tasks))
				bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(tasks))
			}
			sort.Float64s(times)
			sort.Float64s(allocs)
			sort.Float64s(bytes)
			median := times[len(times)/2]
			medAllocs := allocs[len(allocs)/2]
			medBytes := bytes[len(bytes)/2]

			if w == 1 {
				serialRes = res
			} else if !reflect.DeepEqual(res, serialRes) {
				return fmt.Errorf("bench: window solve with %d workers served %d (revenue %.9f) vs %d (%.9f) serially at %d drivers — this is a bug",
					w, res.Served, res.Revenue, serialRes.Served, serialRes.Revenue, drivers)
			}

			name := fmt.Sprintf("windows/drivers=%d/sharded-%d/sparse", drivers, shards)
			if w > 1 {
				name = fmt.Sprintf("%s-w%d", name, w)
			}
			report.Results = append(report.Results, benchResult{
				Name: name, Drivers: drivers, Tasks: tasks,
				Source: "sharded", Shards: shards, Workers: w,
				Seconds: median, TasksPerSec: float64(tasks) / median,
				Served:        res.Served,
				AllocsPerTask: medAllocs, BytesPerTask: medBytes,
			})
			fmt.Fprintf(os.Stderr, "%-48s %8.3fs  %8.0f tasks/s  %9.0f allocs/task\n",
				name, median, float64(tasks)/median, medAllocs)
		}
	}
	return writeBenchReport(out, report)
}

// maxShards collapses a -shards list to the single candidate-source
// configuration the maxprocs sweeps time: the largest requested count,
// where the parallel fan-out has the most shards to spread across.
func maxShards(shardCounts []int) int {
	shards := 1
	for _, s := range shardCounts {
		if s > shards {
			shards = s
		}
	}
	return shards
}

// checkSweepIdentity enforces the maxprocs sweep's bit-identity bar:
// every GOMAXPROCS leg must reproduce the first leg's books exactly —
// same served and rejected counts, bitwise-equal revenue. The parallel
// query fan-out and the component solver both preserve the merge order,
// so equality here is exact, not tolerance-based; any drift is a bug.
func checkSweepIdentity(suite string, p int, served, rejected, baseServed, baseRejected int, revenue, baseRevenue float64) error {
	if served != baseServed || rejected != baseRejected {
		return fmt.Errorf("bench: %s at GOMAXPROCS=%d served %d/rejected %d vs first leg %d/%d — legs diverged, this is a bug",
			suite, p, served, rejected, baseServed, baseRejected)
	}
	if revenue != baseRevenue {
		return fmt.Errorf("bench: %s at GOMAXPROCS=%d revenue %.12g vs first leg %.12g — legs diverged, this is a bug",
			suite, p, revenue, baseRevenue)
	}
	return nil
}

// benchWindowsMaxprocs sweeps GOMAXPROCS over the sparse windowed
// kernel at the engine level: the same batched day is replayed through
// Engine.NewBatchedStream once per requested processor count, with the
// per-shard query fan-out and the component solver free to use the
// leg's processors (MatchWorkers follows GOMAXPROCS unless the user
// pinned -match-workers). Every SubmitTask — the call that pays for
// due window closes — is individually timed into an HDR-style
// histogram, so the latency columns price the decision tail, not just
// mean throughput. All legs must produce bit-identical books.
func benchWindowsMaxprocs(out string, tasks int, driverCounts, shardCounts []int, reps int, seed int64,
	window float64, algo dispatch.BatchAlgorithm, workers int, workersSet bool, procs []int) error {
	simAlgo := sim.BatchHungarian
	if algo == dispatch.Auction {
		simAlgo = sim.BatchAuction
	}
	shards := maxShards(shardCounts)
	if len(shardCounts) > 1 {
		fmt.Fprintf(os.Stderr, "bench: -maxprocs times one candidate source; using sharded-%d (the largest of -shards %v)\n",
			shards, shardCounts)
	}
	report := benchReport{
		Schema:     "rideshare-bench/v1",
		Command:    fmt.Sprintf("rideshare bench -windows -maxprocs %v -batch-window %g -batch-algo %v", procs, window, algo),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Reps:       reps,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, drivers := range driverCounts {
		cfg := trace.NewConfig(seed, tasks, drivers, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		// The canonical streaming feed: the day's orders in publish
		// order, exactly as the batched differential tests replay them.
		day := make([]model.Task, len(tr.Tasks))
		copy(day, tr.Tasks)
		sort.SliceStable(day, func(a, b int) bool { return day[a].Publish < day[b].Publish })

		var baseRes sim.Result
		var baseSec float64
		for li, p := range procs {
			runtime.GOMAXPROCS(p)
			w := workers
			if !workersSet {
				w = p
			}
			eng, err := sim.New(cfg.Market, tr.Drivers, 1)
			if err != nil {
				return err
			}
			if shards > 1 {
				eng.SetCandidateSource(sim.NewShardedSource(shards))
			}
			eng.MatchWorkers = w

			var res sim.Result
			hist := &stats.LatencyHist{}
			times := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				st, err := eng.NewBatchedStream(window, simAlgo, nil)
				if err != nil {
					return err
				}
				start := time.Now()
				for i := range day {
					t0 := time.Now()
					st.SubmitTask(day[i])
					hist.Record(time.Since(t0).Seconds())
				}
				t0 := time.Now()
				res, err = st.Finish()
				if err != nil {
					return err
				}
				hist.Record(time.Since(t0).Seconds())
				times = append(times, time.Since(start).Seconds())
			}
			sort.Float64s(times)
			median := times[len(times)/2]

			if li == 0 {
				baseRes, baseSec = res, median
			} else if err := checkSweepIdentity("-windows sweep", p,
				res.Served, res.Rejected, baseRes.Served, baseRes.Rejected,
				res.Revenue, baseRes.Revenue); err != nil {
				return err
			}

			sum := hist.Summary()
			r := benchResult{
				Name:    fmt.Sprintf("windows/drivers=%d/sharded-%d/sparse/procs=%d", drivers, shards, p),
				Drivers: drivers, Tasks: tasks,
				Source: "sharded", Shards: shards, Workers: w,
				Seconds: median, TasksPerSec: float64(tasks) / median,
				Served: res.Served, Revenue: res.Revenue,
				GoMaxProcs: p, Latency: &sum,
			}
			if li > 0 {
				r.SpeedupVsProcs1 = baseSec / median
			}
			report.Results = append(report.Results, r)
			fmt.Fprintf(os.Stderr, "%-52s %8.3fs  %8.0f tasks/s  p50 %.3fms  p99 %.3fms  p999 %.3fms\n",
				r.Name, median, r.TasksPerSec, sum.P50Ms, sum.P99Ms, sum.P999Ms)
		}
	}
	return writeBenchReport(out, report)
}

// benchBatchedMaxprocs sweeps GOMAXPROCS over the public batched
// service: the same day is replayed submission-by-submission through a
// WithBatching dispatch.Service once per requested processor count,
// timing each SubmitTask and the window-deciding Close into the latency
// histogram. The service's match workers follow the leg's GOMAXPROCS
// unless -match-workers pinned them. All legs must balance to the same
// books — the sweep doubles as a concurrency differential test of the
// whole public stack.
func benchBatchedMaxprocs(out string, tasks int, driverCounts, shardCounts []int, reps int, seed int64,
	window float64, algo dispatch.BatchAlgorithm, workers int, workersSet bool, procs []int) error {
	shards := maxShards(shardCounts)
	if len(shardCounts) > 1 {
		fmt.Fprintf(os.Stderr, "bench: -maxprocs times one candidate source; using sharded-%d (the largest of -shards %v)\n",
			shards, shardCounts)
	}
	report := benchReport{
		Schema:     "rideshare-bench/v1",
		Command:    fmt.Sprintf("rideshare bench -batched -maxprocs %v -batch-window %g -batch-algo %v", procs, window, algo),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Reps:       reps,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	for _, drivers := range driverCounts {
		cfg := trace.NewConfig(seed, tasks, drivers, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)

		market := dispatch.Market{}
		for i, d := range tr.Drivers {
			market.Drivers = append(market.Drivers, toDispatchDriver(i, d))
		}
		feed := make([]dispatch.Task, len(tr.Tasks))
		for i, t := range tr.Tasks {
			feed[i] = toDispatchTask(i, t)
		}
		sort.SliceStable(feed, func(a, b int) bool { return feed[a].Publish < feed[b].Publish })

		var baseStats dispatch.Stats
		var baseSec float64
		for li, p := range procs {
			runtime.GOMAXPROCS(p)
			w := workers
			if !workersSet {
				w = p
			}
			opts := []dispatch.Option{
				dispatch.WithBatching(window, algo),
				dispatch.WithSeed(1), dispatch.WithStrictTimes(),
			}
			if shards > 1 {
				opts = append(opts, dispatch.WithShards(shards))
			}
			if w > 1 {
				opts = append(opts, dispatch.WithMatchWorkers(w))
			}

			var svcStats dispatch.Stats
			hist := &stats.LatencyHist{}
			times := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				svc, err := dispatch.New(market, opts...)
				if err != nil {
					return fmt.Errorf("bench: batched service: %w", err)
				}
				start := time.Now()
				for i := range feed {
					t0 := time.Now()
					if _, err := svc.SubmitTask(ctx, feed[i]); err != nil {
						return fmt.Errorf("bench: batched submit %d: %w", feed[i].ID, err)
					}
					hist.Record(time.Since(t0).Seconds())
				}
				t0 := time.Now()
				svcStats, err = svc.Close()
				if err != nil {
					return err
				}
				hist.Record(time.Since(t0).Seconds())
				times = append(times, time.Since(start).Seconds())
			}
			sort.Float64s(times)
			median := times[len(times)/2]

			if li == 0 {
				baseStats, baseSec = svcStats, median
			} else if err := checkSweepIdentity("-batched sweep", p,
				svcStats.Served, svcStats.Rejected, baseStats.Served, baseStats.Rejected,
				svcStats.Revenue, baseStats.Revenue); err != nil {
				return err
			}

			sum := hist.Summary()
			r := benchResult{
				Name:    fmt.Sprintf("batched/drivers=%d/sharded-%d/service/procs=%d", drivers, shards, p),
				Drivers: drivers, Tasks: tasks,
				Source: "sharded", Shards: shards,
				Mode: "streaming", Workers: w,
				Seconds: median, TasksPerSec: float64(tasks) / median,
				Served: svcStats.Served, Revenue: svcStats.Revenue,
				GoMaxProcs: p, Latency: &sum,
			}
			if li > 0 {
				r.SpeedupVsProcs1 = baseSec / median
			}
			report.Results = append(report.Results, r)
			fmt.Fprintf(os.Stderr, "%-52s %8.3fs  %8.0f tasks/s  p50 %.3fms  p99 %.3fms  p999 %.3fms\n",
				r.Name, median, r.TasksPerSec, sum.P50Ms, sum.P99Ms, sum.P999Ms)
		}
	}
	return writeBenchReport(out, report)
}

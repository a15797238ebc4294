package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// Local stand-ins for the online package's dispatchers (which cannot be
// imported here without a cycle). They replicate the order- and
// RNG-sensitivity that makes candidate-set identity observable: maxMargin
// keeps the first best under strict comparison, nearest breaks arrival
// ties through the engine RNG, random consumes one draw per task.

type diffMaxMargin struct{}

func (diffMaxMargin) Name() string { return "maxMargin" }
func (diffMaxMargin) Choose(_ model.Task, cands []Candidate, _ *rand.Rand) int {
	best := -1
	for i, c := range cands {
		if best < 0 || c.Margin > cands[best].Margin {
			best = i
		}
	}
	if best >= 0 && cands[best].Margin <= 0 {
		return -1
	}
	return best
}

type diffNearest struct{}

func (diffNearest) Name() string { return "nearest" }
func (diffNearest) Choose(_ model.Task, cands []Candidate, rng *rand.Rand) int {
	best, ties := -1, 0
	for i, c := range cands {
		switch {
		case best < 0 || c.Arrival < cands[best].Arrival:
			best, ties = i, 1
		case c.Arrival == cands[best].Arrival:
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

type diffRandom struct{}

func (diffRandom) Name() string { return "random" }
func (diffRandom) Choose(_ model.Task, cands []Candidate, rng *rand.Rand) int {
	if len(cands) == 0 {
		return -1
	}
	return rng.Intn(len(cands))
}

// These differential tests are the correctness contract of the spatial
// candidate index: on randomized markets — varying shard counts,
// driver counts, working models and both availability modes — the
// indexed engine must produce the *identical* Result (serve counts,
// revenue, every per-driver assignment sequence, bit-for-bit floats) as
// the linear-scan engine, for every Run* entry point. The pre-filter may
// only ever shrink the work, never the candidate set.

func diffResults(t *testing.T, label string, scan, indexed Result) {
	t.Helper()
	if reflect.DeepEqual(scan, indexed) {
		return
	}
	t.Errorf("%s: indexed result diverges from linear scan", label)
	if scan.Served != indexed.Served || scan.Rejected != indexed.Rejected {
		t.Errorf("%s: served/rejected %d/%d vs %d/%d",
			label, scan.Served, scan.Rejected, indexed.Served, indexed.Rejected)
	}
	if scan.Revenue != indexed.Revenue || scan.TotalProfit != indexed.TotalProfit {
		t.Errorf("%s: revenue/profit %.9f/%.9f vs %.9f/%.9f",
			label, scan.Revenue, scan.TotalProfit, indexed.Revenue, indexed.TotalProfit)
	}
	for ti, d := range scan.Assignment {
		if indexed.Assignment[ti] != d {
			t.Errorf("%s: task %d assigned to driver %d by scan, %d by index",
				label, ti, d, indexed.Assignment[ti])
		}
	}
	for ti := range indexed.Assignment {
		if _, ok := scan.Assignment[ti]; !ok {
			t.Errorf("%s: task %d served only by the indexed engine", label, ti)
		}
	}
}

// runWithSource runs one simulation on a fresh engine bound to src.
func runWithSource(t *testing.T, mkt model.Market, drivers []model.Driver, seed int64,
	realTime bool, src CandidateSource, run func(e *Engine) Result) Result {
	t.Helper()
	e, err := New(mkt, drivers, seed)
	if err != nil {
		t.Fatal(err)
	}
	e.RealTime = realTime
	if src != nil {
		e.SetCandidateSource(src)
	}
	return run(e)
}

// shardCounts is the sweep the sharded differential tests run: 1 must
// reproduce the sequential engine, and every higher count must too.
var shardCounts = []int{1, 2, 4, 8}

// TestShardedSourceMatchesScan is the determinism contract of the
// zone-sharded engine: for shard counts 1, 2, 4 and 8, across
// randomized markets, working models, availability modes and
// dispatchers, the sharded engine's Result must be reflect.DeepEqual-
// (and therefore bit-)identical to the sequential linear-scan engine.
func TestShardedSourceMatchesScan(t *testing.T) {
	seeds := []int64{31, 32, 33, 34, 35}
	if testing.Short() {
		seeds = seeds[:2]
	}
	dispatchers := []Dispatcher{diffMaxMargin{}, diffNearest{}, diffRandom{}}
	for _, seed := range seeds {
		for _, nDrivers := range []int{3, 40, 150} {
			for _, dm := range []trace.DriverModel{trace.Hitchhiking, trace.HomeWorkHome} {
				cfg := trace.NewConfig(seed, 150, nDrivers, dm)
				tr := trace.NewGenerator(cfg).Generate(nil)
				for _, realTime := range []bool{false, true} {
					for _, d := range dispatchers {
						run := func(e *Engine) Result { return e.Run(tr.Tasks, d) }
						scan := runWithSource(t, cfg.Market, tr.Drivers, seed, realTime, nil, run)
						for _, shards := range shardCounts {
							label := fmt.Sprintf("seed=%d n=%d model=%v rt=%v shards=%d disp=%s",
								seed, nDrivers, dm, realTime, shards, d.Name())
							sharded := runWithSource(t, cfg.Market, tr.Drivers, seed, realTime,
								NewShardedSource(shards), run)
							diffResults(t, label, scan, sharded)
						}
					}
				}
			}
		}
	}
}

// TestShardedSourceMatchesScanAllEntryPoints covers the remaining Run*
// entry points — by-value ordering, both batched solvers, and
// rolling-horizon replanning — across the shard sweep.
func TestShardedSourceMatchesScanAllEntryPoints(t *testing.T) {
	seeds := []int64{41, 42, 43}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 120, 50, trace.Hitchhiking)
		cfg.PickupWindowMin = 8 * 60 // give batches room to form
		cfg.PickupWindowMax = 16 * 60
		tr := trace.NewGenerator(cfg).Generate(nil)

		runs := map[string]func(e *Engine) Result{
			"by-value": func(e *Engine) Result { return e.RunByValue(tr.Tasks, diffMaxMargin{}) },
			"batched-hungarian": func(e *Engine) Result {
				return e.RunBatched(tr.Tasks, 30, BatchHungarian)
			},
			"batched-auction": func(e *Engine) Result {
				return e.RunBatched(tr.Tasks, 30, BatchAuction)
			},
			"replan": func(e *Engine) Result { return e.RunReplan(tr.Tasks, 60) },
		}
		for name, run := range runs {
			scan := runWithSource(t, cfg.Market, tr.Drivers, seed, false, nil, run)
			for _, shards := range shardCounts {
				sharded := runWithSource(t, cfg.Market, tr.Drivers, seed, false,
					NewShardedSource(shards), run)
				diffResults(t, fmt.Sprintf("seed=%d %s shards=%d", seed, name, shards), scan, sharded)
			}
		}
	}
}

// TestShardedScenarioMatchesScan adds the dynamic workloads — driver
// churn and rider cancellations — on top of the shard sweep: the
// sequential scan engine and every sharded engine must agree on the
// full Result including cancellation accounting, for instant, batched
// and replanned dispatch.
func TestShardedScenarioMatchesScan(t *testing.T) {
	seeds := []int64{51, 52, 53, 54}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 150, 60, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		events := trace.WithChurn(tr, trace.ChurnConfig{
			Seed: seed + 100, JoinFraction: 0.3, RetireFraction: 0.3, CancelFraction: 0.25,
		})
		if len(events) == 0 {
			t.Fatalf("seed=%d: churn produced no events", seed)
		}
		runs := map[string]func(e *Engine) Result{
			"instant": func(e *Engine) Result { return e.RunScenario(tr.Tasks, events, diffNearest{}) },
			"batched": func(e *Engine) Result {
				return e.RunBatchedScenario(tr.Tasks, events, 45, BatchHungarian)
			},
			"replan": func(e *Engine) Result { return e.RunReplanScenario(tr.Tasks, events, 90) },
		}
		for name, run := range runs {
			scan := runWithSource(t, cfg.Market, tr.Drivers, seed, false, nil, run)
			for _, shards := range shardCounts {
				sharded := runWithSource(t, cfg.Market, tr.Drivers, seed, false,
					NewShardedSource(shards), run)
				diffResults(t, fmt.Sprintf("seed=%d scenario=%s shards=%d", seed, name, shards), scan, sharded)
				if sharded.Cancelled != scan.Cancelled {
					t.Errorf("seed=%d scenario=%s shards=%d: cancelled %d vs scan %d",
						seed, name, shards, sharded.Cancelled, scan.Cancelled)
				}
			}
		}
	}
}

// TestShardedSourceSpeedOverrides: per-driver speeds stretch the
// reachability radius past zone borders (candidate borrowing), and the
// radius must follow the fastest driver, not the market default.
func TestShardedSourceSpeedOverrides(t *testing.T) {
	for _, seed := range []int64{61, 62} {
		cfg := trace.NewConfig(seed, 120, 60, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		for i := range tr.Drivers {
			switch i % 3 {
			case 0:
				tr.Drivers[i].SpeedKmh = 55
			case 1:
				tr.Drivers[i].SpeedKmh = 18
			}
		}
		run := func(e *Engine) Result { return e.Run(tr.Tasks, diffMaxMargin{}) }
		scan := runWithSource(t, cfg.Market, tr.Drivers, seed, false, nil, run)
		for _, shards := range shardCounts {
			sharded := runWithSource(t, cfg.Market, tr.Drivers, seed, false, NewShardedSource(shards), run)
			diffResults(t, fmt.Sprintf("seed=%d speed-overrides shards=%d", seed, shards), scan, sharded)
		}
	}
}

// TestSetCandidateSourceNilRestoresScan guards the seam's default.
func TestSetCandidateSourceNilRestoresScan(t *testing.T) {
	cfg := trace.NewConfig(31, 60, 10, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	e, err := New(cfg.Market, tr.Drivers, 31)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCandidateSource(NewShardedSource(1))
	e.SetCandidateSource(nil)
	if _, ok := e.source.(*ScanSource); !ok {
		t.Fatalf("source after SetCandidateSource(nil) is %T, want *ScanSource", e.source)
	}
	res := e.Run(tr.Tasks, diffMaxMargin{})
	if res.Served+res.Rejected != len(tr.Tasks) {
		t.Fatalf("run after source swap lost tasks: %d+%d != %d", res.Served, res.Rejected, len(tr.Tasks))
	}
}

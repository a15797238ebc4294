package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// These tests guard the cached home leg (driverState.homeBits): every
// path that moves or restores a driver's location must leave the cache
// either empty or equal to a fresh Market.Dist(loc, Dest), and days
// that cross those paths must settle bit-identical to the
// never-interrupted run. They run under the road-network metric, where
// a stale cache would price margins with a wrong routed distance.

// homeLegDay is a churning day under the street-graph metric, with
// enough cancellations that some revoke assignments.
type homeLegDay struct {
	market model.Market
	tr     model.Trace
	events []model.MarketEvent
	feed   []feedItem
	fleet  []model.MarketEvent
}

func newHomeLegDay(t *testing.T) homeLegDay {
	t.Helper()
	rcfg := roadnet.DefaultGridConfig()
	rcfg.Rows, rcfg.Cols = 12, 14
	g, err := roadnet.GenerateGrid(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	router := roadnet.NewRouter(g, rcfg.Box, 0)
	cfg := trace.NewConfig(67, 120, 60, trace.Hitchhiking)
	cfg.Market.Dist = router.Dist
	tr := trace.NewGenerator(cfg).Generate(nil)
	events := trace.WithChurn(tr, trace.DefaultChurn(5, 0.3, 0.5))
	feed, fleet := buildFeed(tr.Tasks, events)
	market := cfg.Market
	market.Batch = router
	return homeLegDay{market: market, tr: tr, events: events, feed: feed, fleet: fleet}
}

// engine builds a fresh engine for the day with the given shard count.
func (d homeLegDay) engine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := New(d.market, d.tr.Drivers, 3)
	if err != nil {
		t.Fatal(err)
	}
	e.SetCandidateSource(NewShardedSource(shards))
	return e
}

// reference runs the never-interrupted day.
func (d homeLegDay) reference(t *testing.T, shards int, batched bool) Result {
	e := d.engine(t, shards)
	if batched {
		return e.RunBatchedScenario(d.tr.Tasks, d.events, 45, BatchHungarian)
	}
	return e.RunScenario(d.tr.Tasks, d.events, diffMaxMargin{})
}

func (d homeLegDay) stream(t *testing.T, e *Engine, batched bool) *Stream {
	t.Helper()
	var s *Stream
	var err error
	if batched {
		s, err = e.NewBatchedStream(45, BatchHungarian, d.fleet)
	} else {
		s, err = e.NewStream(diffMaxMargin{}, d.fleet)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// apply feeds items one at a time, checking the cache after each, and
// returns how many cancellations revoked an assignment.
func (d homeLegDay) apply(t *testing.T, s *Stream, items []feedItem) (revoked int) {
	t.Helper()
	for _, it := range items {
		if it.isTask {
			if _, err := s.SubmitTask(d.tr.Tasks[it.task]); err != nil {
				t.Fatalf("SubmitTask(%d): %v", it.task, err)
			}
		} else {
			drv, _, err := s.CancelTask(it.task, it.at)
			if err != nil {
				t.Fatalf("CancelTask(%d): %v", it.task, err)
			}
			if drv >= 0 {
				revoked++
			}
		}
		checkHomeLegs(t, s)
	}
	return revoked
}

// checkHomeLegs fails the test if any cached home leg — of a live
// driver state or of a saved pre-assignment state — differs from a
// fresh Market.Dist of its own location, and reports how many are
// filled.
func checkHomeLegs(t *testing.T, s *Stream) (filled int) {
	t.Helper()
	e := s.e
	check := func(what string, i int, st driverState) {
		if st.homeBits == 0 {
			return
		}
		filled++
		want := e.Market.Dist(st.loc, e.Drivers[i].Dest)
		if got := math.Float64frombits(^st.homeBits); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s of driver %d: cached home leg %v km, Dist(loc, Dest) = %v km", what, i, got, want)
		}
	}
	for i, st := range e.states {
		check("state", i, st)
	}
	for _, info := range s.r.inflight {
		check("inflight prev", info.driver, info.prev)
	}
	for drv, info := range s.r.revert {
		check("revert prev", drv, info.prev)
	}
	return filled
}

// TestHomeLegCacheRevocation: cancellations that revoke assignments
// restore the driver's pre-assignment state, cache included. A stream
// replay checked after every operation must settle bit-identical to
// the never-interrupted scenario run, in instant and batched mode,
// with serial and concurrent zone scoring.
func TestHomeLegCacheRevocation(t *testing.T) {
	d := newHomeLegDay(t)
	for _, batched := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("batched=%v/shards=%d", batched, shards), func(t *testing.T) {
				want := d.reference(t, shards, batched)
				s := d.stream(t, d.engine(t, shards), batched)
				revoked := d.apply(t, s, d.feed)
				if filled := checkHomeLegs(t, s); filled == 0 {
					t.Fatal("no home leg was ever cached: the cache is not on the scoring path")
				}
				if revoked == 0 {
					t.Fatal("no cancellation revoked an assignment: the day does not exercise revocation")
				}
				got, err := s.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("stream with %d revocations diverged from the scenario run: served %d vs %d, profit %.9f vs %.9f",
						revoked, got.Served, want.Served, got.TotalProfit, want.TotalProfit)
				}
			})
		}
	}
}

// TestHomeLegCacheRevokedAfterRescoring pins the revocation path on a
// hand-built day where a stale cache would show: the driver is
// assigned task a, scored (and rejected) for task c while locked —
// which caches the home leg from a's dropoff — and then a's
// cancellation revokes her to her source. Task b's margin must price
// the home leg from the source again (Eq. 14 by hand:
// 10 − (1 + 1 + 2 − 0) = 6), not from a's dropoff.
func TestHomeLegCacheRevokedAfterRescoring(t *testing.T) {
	d := []model.Driver{{ID: 0, Source: at(0), Dest: at(0), Start: 0, End: minutes(240)}}
	a := task(0, 10, 12, minutes(0), minutes(15), minutes(30), 20)
	c := task(1, 13, 14, minutes(2), minutes(40), minutes(60), 1)
	b := task(2, 1, 2, minutes(6), minutes(12), minutes(25), 10)
	scored := map[int]int{}
	margin := math.NaN()
	dsp := dispatcherFunc(func(tk model.Task, cands []Candidate, _ *rand.Rand) int {
		scored[tk.ID] = len(cands)
		if tk.ID == c.ID || len(cands) == 0 {
			return -1
		}
		if tk.ID == b.ID {
			margin = cands[0].Margin
		}
		return 0
	})
	s, err := mustEngine(t, d).NewStream(dsp, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range []model.Task{a, c} {
		if _, err := s.SubmitTask(tk); err != nil {
			t.Fatal(err)
		}
		checkHomeLegs(t, s)
	}
	if scored[c.ID] != 1 {
		t.Fatalf("task c saw %d candidates, want the locked driver", scored[c.ID])
	}
	if drv, _, err := s.CancelTask(0, minutes(5)); err != nil || drv != 0 {
		t.Fatalf("CancelTask = (%d, %v), want driver 0 freed", drv, err)
	}
	checkHomeLegs(t, s)
	if _, err := s.SubmitTask(b); err != nil {
		t.Fatal(err)
	}
	checkHomeLegs(t, s)
	if math.Abs(margin-6) > 1e-6 {
		t.Fatalf("task b margin = %.6f, want 6: the revoked driver's home leg was priced from a stale location", margin)
	}
}

// TestHomeLegCacheCaptureRestore: a stream captured mid-day, carried
// through the JSON snapshot format and restored onto a fresh engine
// (whose states start with empty caches) settles bit-identical to the
// never-interrupted run.
func TestHomeLegCacheCaptureRestore(t *testing.T) {
	d := newHomeLegDay(t)
	for _, batched := range []bool{false, true} {
		want := d.reference(t, 4, batched)
		for _, cut := range []int{len(d.feed) / 3, len(d.feed) / 2, 2 * len(d.feed) / 3} {
			t.Run(fmt.Sprintf("batched=%v/cut=%d", batched, cut), func(t *testing.T) {
				s := d.stream(t, d.engine(t, 4), batched)
				d.apply(t, s, d.feed[:cut])
				snap, err := s.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				buf, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var back StreamState
				if err := json.Unmarshal(buf, &back); err != nil {
					t.Fatal(err)
				}
				var dsp Dispatcher = diffMaxMargin{}
				if batched {
					dsp = nil
				}
				restored, err := d.engine(t, 4).RestoreStream(&back, dsp, 45, BatchHungarian)
				if err != nil {
					t.Fatal(err)
				}
				d.apply(t, restored, d.feed[cut:])
				got, err := restored.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("restored at op %d diverged: served %d vs %d, profit %.9f vs %.9f",
						cut, got.Served, want.Served, got.TotalProfit, want.TotalProfit)
				}
			})
		}
	}
}

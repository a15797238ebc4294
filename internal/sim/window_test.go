package sim

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/trace"
)

// These tests are the sparse window pipeline's correctness wall. The
// component-decomposed solve (closeBatchSparse) must commit exactly
// what the pre-decomposition dense oracle (closeBatchDense) would
// have committed — same assignments, same rejections, bit-identical
// Result — across solvers, window lengths, candidate sources and
// dynamic churn/cancellation workloads; and the matcher worker count,
// like the shard count, must be invisible in the results of both the
// batch drain and the streaming replay.

// runBatchedWith runs one batched scenario on a fresh engine in the
// given window configuration.
func runBatchedWith(t *testing.T, cfg trace.Config, drivers []model.Driver, tasks []model.Task,
	events []model.MarketEvent, window float64, algo BatchAlgorithm,
	shards, workers int, dense bool) Result {
	t.Helper()
	e, err := New(cfg.Market, drivers, 7)
	if err != nil {
		t.Fatal(err)
	}
	if shards > 1 {
		e.SetCandidateSource(NewShardedSource(shards))
	}
	e.MatchWorkers = workers
	if dense {
		e.windowHook = func(r *eventRun, batch []int, decisionAt float64) bool {
			e.closeBatchDense(r, batch, decisionAt, algo)
			return true
		}
	}
	return e.RunBatchedScenario(tasks, events, window, algo)
}

// TestSparseWindowsMatchDenseOracle sweeps randomized days — quiet and
// churning — and asserts the sparse component path reproduces the dense
// oracle's Result bit for bit under both solvers, several window
// lengths, and both the scan and sharded candidate sources.
func TestSparseWindowsMatchDenseOracle(t *testing.T) {
	seeds := []int64{71, 72, 73, 74}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 140, 50, trace.Hitchhiking)
		cfg.PickupWindowMin = 8 * 60 // give batches room to form
		cfg.PickupWindowMax = 16 * 60
		tr := trace.NewGenerator(cfg).Generate(nil)
		events := trace.WithChurn(tr, trace.ChurnConfig{
			Seed: seed + 500, JoinFraction: 0.3, RetireFraction: 0.3, CancelFraction: 0.25,
		})
		for _, algo := range []BatchAlgorithm{BatchHungarian, BatchAuction} {
			for _, window := range []float64{20, 60, 240} {
				for _, shards := range []int{1, 4} {
					for _, evs := range map[string][]model.MarketEvent{"quiet": nil, "churn": events} {
						dense := runBatchedWith(t, cfg, tr.Drivers, tr.Tasks, evs, window, algo, shards, 1, true)
						sparse := runBatchedWith(t, cfg, tr.Drivers, tr.Tasks, evs, window, algo, shards, 1, false)
						if !reflect.DeepEqual(dense, sparse) {
							t.Errorf("seed=%d %v window=%g shards=%d events=%d: sparse diverged from dense oracle\ndense:  served=%d rejected=%d cancelled=%d revenue=%.9f\nsparse: served=%d rejected=%d cancelled=%d revenue=%.9f",
								seed, algo, window, shards, len(evs),
								dense.Served, dense.Rejected, dense.Cancelled, dense.Revenue,
								sparse.Served, sparse.Rejected, sparse.Cancelled, sparse.Revenue)
						}
					}
				}
			}
		}
	}
}

// TestWindowWorkerIndependence is the worker-count determinism
// contract: batched results — from the batch drain and from a batched
// stream replay — are bit-identical across matcher workers {1, 2, 4} ×
// shards {1, 2, 4} × both solvers on churn/cancellation traces.
func TestWindowWorkerIndependence(t *testing.T) {
	seeds := []int64{81, 82}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 150, 60, trace.Hitchhiking)
		cfg.PickupWindowMin = 8 * 60
		cfg.PickupWindowMax = 16 * 60
		tr := trace.NewGenerator(cfg).Generate(nil)
		events := trace.WithChurn(tr, trace.ChurnConfig{
			Seed: seed + 900, JoinFraction: 0.3, RetireFraction: 0.3, CancelFraction: 0.25,
		})
		for _, algo := range []BatchAlgorithm{BatchHungarian, BatchAuction} {
			base := runBatchedWith(t, cfg, tr.Drivers, tr.Tasks, events, 45, algo, 1, 1, false)
			for _, shards := range []int{1, 2, 4} {
				for _, workers := range []int{1, 2, 4} {
					label := fmt.Sprintf("seed=%d %v shards=%d workers=%d", seed, algo, shards, workers)
					got := runBatchedWith(t, cfg, tr.Drivers, tr.Tasks, events, 45, algo, shards, workers, false)
					if !reflect.DeepEqual(base, got) {
						t.Errorf("%s: batch drain diverged from shards=1 workers=1", label)
					}

					se, err := New(cfg.Market, tr.Drivers, 7)
					if err != nil {
						t.Fatal(err)
					}
					if shards > 1 {
						se.SetCandidateSource(NewShardedSource(shards))
					}
					se.MatchWorkers = workers
					streamed := replayThroughBatchedStream(t, se, 45, algo, tr.Tasks, events)
					if !reflect.DeepEqual(base, streamed) {
						t.Errorf("%s: batched stream replay diverged from shards=1 workers=1", label)
					}
				}
			}
		}
	}
}

// TestWindowSolversAgreePerWindow audits every window of batched days
// at the decision point itself: the dense matrix and the sparse CSR are
// rebuilt from identical candidate queries and solved by both kernels,
// and the two optima must carry exactly the same total weight. Where
// the assignments differ the window holds several exact optima — a real
// degeneracy of the workload: orders lying on a driver's route home
// cost exactly zero margin for every such driver (the box-clamped
// boundary makes whole windows collinear), so distinct drivers tie
// bitwise — and each kernel commits its own canonical optimum. The
// audit asserts those divergences never trade away weight, and the
// Result-level dense-vs-sparse tests above pin bit-identity whenever
// the optimum is unique.
func TestWindowSolversAgreePerWindow(t *testing.T) {
	seeds := []int64{27, 101}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := trace.NewConfig(seed, 600, 2000, trace.Hitchhiking)
		tr := trace.NewGenerator(cfg).Generate(nil)
		e, err := New(cfg.Market, tr.Drivers, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCandidateSource(NewShardedSource(4))
		windows, ties := 0, 0
		e.windowHook = func(r *eventRun, batch []int, decisionAt float64) bool {
			windows++
			w, union := auditBuildDense(e, r, batch, decisionAt)
			dense, err := matching.Hungarian(w)
			if err != nil {
				t.Fatal(err)
			}
			sp := matching.Sparse{Rows: len(batch), Cols: len(union), RowPtr: []int{0}}
			for bi := range batch {
				for j := 0; j < len(union); j++ {
					if w[bi][j] > 0 && w[bi][j] > matching.Forbidden {
						sp.Col = append(sp.Col, j)
						sp.W = append(sp.W, w[bi][j])
					}
				}
				sp.RowPtr = append(sp.RowPtr, len(sp.Col))
			}
			sparse, err := matching.SparseHungarian(sp)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(dense.Weight-sparse.Weight) > 1e-9 {
				t.Errorf("window at %.1f (batch %d, union %d): weight dense %.15f vs sparse %.15f",
					decisionAt, len(batch), len(union), dense.Weight, sparse.Weight)
			}
			if !reflect.DeepEqual(dense.ColOf, sparse.ColOf) {
				ties++
			}
			return false
		}
		res := e.RunBatched(tr.Tasks, 180, BatchHungarian)
		if windows == 0 {
			t.Fatalf("seed=%d: no windows audited", seed)
		}
		if res.Served+res.Rejected != len(tr.Tasks) {
			t.Fatalf("seed=%d: books do not balance", seed)
		}
		t.Logf("seed=%d: %d windows audited, %d with tied optima", seed, windows, ties)
	}
}

// auditBuildDense rebuilds closeBatchDense's pruned weight matrix for
// one window from the same candidate queries, without committing.
func auditBuildDense(e *Engine, r *eventRun, batch []int, decisionAt float64) ([][]float64, []int) {
	cands := make([][]Candidate, len(batch))
	inUnion := make(map[int]bool)
	var union []int
	var buf []Candidate
	for bi, ti := range batch {
		buf = e.source.Candidates(r.tasks[ti], decisionAt, buf[:0])
		cs := append([]Candidate(nil), buf...)
		if len(cs) > len(batch) {
			sort.Slice(cs, func(a, b int) bool {
				if cs[a].Margin != cs[b].Margin {
					return cs[a].Margin > cs[b].Margin
				}
				return cs[a].Driver < cs[b].Driver
			})
			cs = cs[:len(batch)]
		}
		cands[bi] = cs
		for _, c := range cs {
			if !inUnion[c.Driver] {
				inUnion[c.Driver] = true
				union = append(union, c.Driver)
			}
		}
	}
	sort.Ints(union)
	col := make(map[int]int, len(union))
	for j, drv := range union {
		col[drv] = j
	}
	w := make([][]float64, len(batch))
	for bi := range batch {
		w[bi] = make([]float64, len(union))
		for j := range w[bi] {
			w[bi][j] = matching.Forbidden
		}
		for _, c := range cands[bi] {
			w[bi][col[c.Driver]] = c.Margin
		}
	}
	return w, union
}

// TestWindowScratchSurvivesFleetGrowth: the pooled driver-indexed maps
// must follow AddDriver mid-stream — a window closed after the fleet
// grew sees candidates whose driver index exceeds the fleet size the
// scratch was first sized for.
func TestWindowScratchSurvivesFleetGrowth(t *testing.T) {
	cfg := trace.NewConfig(91, 40, 6, trace.Hitchhiking)
	cfg.PickupWindowMin = 8 * 60
	cfg.PickupWindowMax = 16 * 60
	tr := trace.NewGenerator(cfg).Generate(nil)

	e, err := New(cfg.Market, tr.Drivers[:3], 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.NewBatchedStream(30, BatchHungarian, nil)
	if err != nil {
		t.Fatal(err)
	}
	decided := 0
	st.SetDecisionHandler(func(TaskDecision) { decided++ })
	for i, task := range tr.Tasks {
		if i == len(tr.Tasks)/2 {
			// Grow the fleet mid-day: the remaining drivers join at the
			// stream's current time and are candidates from then on.
			for _, d := range tr.Drivers[3:] {
				if _, err := st.AddDriver(d, st.Now()); err != nil {
					t.Fatalf("AddDriver: %v", err)
				}
			}
		}
		if _, err := st.SubmitTask(task); err != nil {
			t.Fatalf("SubmitTask: %v", err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if decided != len(tr.Tasks) {
		t.Fatalf("decided %d of %d tasks", decided, len(tr.Tasks))
	}
	if res.Served+res.Rejected != len(tr.Tasks) {
		t.Fatalf("books do not balance after fleet growth: served %d + rejected %d != %d",
			res.Served, res.Rejected, len(tr.Tasks))
	}
}

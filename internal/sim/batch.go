package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/matching"
	"repro/internal/model"
)

// This file implements batched dispatch: the "non-heuristic" online
// algorithm direction the paper's conclusion leaves as future work.
// Instead of answering each order the instant it arrives, the platform
// accumulates the orders of a short window (a few seconds to a minute in
// production systems) and solves a maximum-weight assignment between the
// batch and the candidate drivers. Each batch trades a bounded increase
// in response time for globally better matches than the per-task greedy
// heuristics of §V.
//
// Over the event loop, the first arrival with no close pending opens a
// batch and schedules an internal batch-close event window seconds
// later; arrivals accumulate until it fires. The close event sorts
// before any arrival at the same instant, so a batch spans exactly
// [head, head+window) of publish time. Rider cancellations landing
// inside the window remove the order from the open batch before it is
// matched; the window stays anchored at the order that opened it, so a
// cancellation never changes when other orders are decided.
//
// The window state lives in a batcher that wires itself onto an
// eventRun's mode hooks, so the same machinery backs both the
// drain-to-completion entry points (RunBatched*) and the open-loop
// streaming API (Engine.NewBatchedStream): a batch run is just a
// batched stream that enqueues the whole day upfront.

// BatchAlgorithm selects the assignment solver used per batch.
type BatchAlgorithm int

// Batch solvers.
const (
	// BatchHungarian solves each batch exactly in O(n³).
	BatchHungarian BatchAlgorithm = iota
	// BatchAuction uses Bertsekas' auction algorithm (exact up to its
	// bid increment; typically faster on sparse batches).
	BatchAuction
)

// String implements fmt.Stringer.
func (a BatchAlgorithm) String() string {
	switch a {
	case BatchHungarian:
		return "batched(hungarian)"
	case BatchAuction:
		return "batched(auction)"
	default:
		return fmt.Sprintf("BatchAlgorithm(%d)", int(a))
	}
}

// BatchStats summarizes one closed dispatch window.
type BatchStats struct {
	// OpenedAt is the publish time of the order that opened the window;
	// ClosedAt the decision instant, OpenedAt + window.
	OpenedAt float64
	ClosedAt float64
	// Submitted counts the orders that joined the window; Cancelled the
	// ones riders withdrew before the close. The remaining
	// Submitted − Cancelled orders were matched (Matched) or left
	// without a feasible profitable driver (Rejected).
	Submitted int
	Cancelled int
	Matched   int
	Rejected  int
}

// batcher holds the open-window state of one batched run and installs
// the mode hooks interpreting arrivals, batch closes and mid-window
// cancellations. closeAt tracks the pending batch-close event (NaN when
// none): the window is anchored at the arrival that opened it and stays
// anchored even if cancellations empty the batch before it closes —
// otherwise a stale close would fire early on the next batch.
type batcher struct {
	r      *eventRun
	window float64
	algo   BatchAlgorithm

	batch     []int
	openedAt  float64
	closeAt   float64
	cancelled int // orders removed from the open window by their riders

	// onClose, when set, receives each closed window's stats right
	// after its decisions committed; the streaming API forwards them to
	// the service feed.
	onClose func(BatchStats)
}

// newBatcher wires batched-window dispatch onto the run. The window
// must be positive: the public boundaries (dispatch options, CLI flags)
// validate user input, so a non-positive window here is an internal
// programming error.
func newBatcher(r *eventRun, window float64, algo BatchAlgorithm) *batcher {
	if !(window > 0) || math.IsInf(window, 1) {
		panic(fmt.Sprintf("sim: non-positive batch window %g", window))
	}
	b := &batcher{r: r, window: window, algo: algo, closeAt: math.NaN()}
	r.onArrival = b.arrival
	r.onBatchClose = b.close
	r.cancelPending = b.cancelPending
	return b
}

// open reports whether a window is currently accumulating orders.
func (b *batcher) open() bool { return !math.IsNaN(b.closeAt) }

func (b *batcher) arrival(ev event) {
	if !b.open() {
		b.openedAt = ev.at
		b.closeAt = ev.at + b.window
		b.cancelled = 0
		b.r.push(event{key: b.closeAt, kind: evBatchClose, at: b.closeAt})
	}
	b.batch = append(b.batch, ev.idx)
}

func (b *batcher) close(ev event) {
	stats := BatchStats{
		OpenedAt:  b.openedAt,
		ClosedAt:  ev.at,
		Submitted: len(b.batch) + b.cancelled,
		Cancelled: b.cancelled,
	}
	before := b.r.res.Rejected
	b.r.e.closeBatch(b.r, b.batch, ev.at, b.algo)
	stats.Rejected = b.r.res.Rejected - before
	stats.Matched = len(b.batch) - stats.Rejected
	b.batch = b.batch[:0]
	b.closeAt = math.NaN()
	if b.r.e.pricer != nil {
		b.r.e.pricer.Decay(b.r.e.pricerDecay)
	}
	if b.onClose != nil {
		b.onClose(stats)
	}
}

func (b *batcher) cancelPending(ti int) bool {
	for k, v := range b.batch {
		if v == ti {
			b.batch = append(b.batch[:k], b.batch[k+1:]...)
			b.cancelled++
			return true
		}
	}
	return false
}

// RunBatched simulates the day with batched dispatch: tasks are grouped
// into consecutive windows of `window` seconds by publish time; at each
// window's end the engine solves a maximum-weight task–driver assignment
// over the marginal values δ_{n,m} (Eq. 14), assigning at most one task
// per driver per batch. Margins ≤ 0 are never assigned (individual
// rationality), and tasks that found no driver are rejected — they are
// real-time orders and cannot wait for the next batch.
func (e *Engine) RunBatched(tasks []model.Task, window float64, algo BatchAlgorithm) Result {
	return e.RunBatchedScenario(tasks, nil, window, algo)
}

// RunBatchedScenario is RunBatched with dynamic market events (driver
// churn, rider cancellations) interleaved into the arrival stream, with
// the same event semantics as RunScenario.
func (e *Engine) RunBatchedScenario(tasks []model.Task, events []model.MarketEvent, window float64, algo BatchAlgorithm) Result {
	r := e.newEventRun(tasks, events, true)
	newBatcher(r, window, algo)
	for i := range tasks {
		r.add(event{key: tasks[i].Publish, kind: evArrival, seq: i, at: tasks[i].Publish, idx: i})
	}
	r.drain()
	e.settle(&r.res)
	return r.res
}

// closeBatch solves the maximum-weight assignment for one batch at its
// decision time and commits the matches, reporting each order's outcome
// through the run's decision hook when one is installed.
//
// The solve (closeBatchSparse) builds the window as a sparse candidate
// graph, splits it into connected task–driver components and solves
// each one independently with the sparse kernels of internal/matching,
// reusing pooled scratch so a steady-state window costs no
// allocations. The tests keep the pre-decomposition dense solve as the
// differential oracle and route windows through it with windowHook:
// both commit an exact maximum-weight assignment, bit-identical
// whenever the window's optimum is unique — the window differential
// tests sweep exactly that, and the per-window audit proves equal
// weight even on the degenerate windows where several exact optima tie
// bitwise (orders lying on a driver's route home cost zero margin for
// every such driver) and each path commits its own canonical optimum.
func (e *Engine) closeBatch(r *eventRun, batch []int, decisionAt float64, algo BatchAlgorithm) {
	if len(batch) == 0 {
		return // every order of the window was cancelled
	}
	if e.windowHook != nil && e.windowHook(r, batch, decisionAt) {
		return
	}
	e.closeBatchSparse(r, batch, decisionAt, algo)
}

// windowScratch is the batcher's pooled per-window working set. One
// instance lives on the engine and is reused across every window of
// every batched run, so the steady-state hot path — candidate arena,
// driver→column maps, the CSR edge arrays and the solver's own scratch
// — never touches the allocator. Driver-indexed arrays are epoch-
// stamped instead of cleared: bumping epoch invalidates the whole map
// in O(1), and entries for drivers added mid-stream (AddDriver) carry
// epoch 0, which is never current.
type windowScratch struct {
	arena  []Candidate // kept candidate edges, row spans concatenated
	rowPtr []int       // len batch+1: row spans into arena, reused as CSR RowPtr

	epoch    int
	colEpoch []int // driver -> epoch the driver was last seen
	colIdx   []int // driver -> compact column, valid when colEpoch is current
	union    []int // compact column -> driver, ascending

	col []int     // CSR column ids, parallel to arena
	w   []float64 // CSR margins
	arr []float64 // per-edge pickup arrival times

	solver matching.SparseSolver
}

// closeBatchSparse is the production window solve: the window as a
// sparse candidate graph, decomposed into connected components and
// solved exactly per component (concurrently across Engine.MatchWorkers
// goroutines when configured) by internal/matching's sparse kernels.
//
// The graph keeps the dense oracle's two canonical compactions — top
// len(batch) candidates per row by (margin, driver), columns renumbered
// over the ascending union of surviving drivers — and adds a third that
// is equally exact: candidates with non-positive margin are dropped
// while building the rows, because individual rationality already bars
// them from every assignment. Rows are laid out in batch order and each
// row's edges in ascending driver order, so the solve is deterministic
// and the commit loop below replays decisions in exactly the dense
// oracle's order — which is what keeps the two paths, all candidate
// sources, every shard count and every worker count bit-identical.
func (e *Engine) closeBatchSparse(r *eventRun, batch []int, decisionAt float64, algo BatchAlgorithm) {
	ws := e.winScratch
	if ws == nil {
		ws = &windowScratch{}
		e.winScratch = ws
	}
	for len(ws.colEpoch) < len(e.Drivers) {
		ws.colEpoch = append(ws.colEpoch, 0)
		ws.colIdx = append(ws.colIdx, 0)
	}
	ws.epoch++

	// Rows: query, filter to positive margins, prune to the decisive
	// top-k, restore ascending driver order within the row.
	ws.arena = ws.arena[:0]
	ws.rowPtr = append(ws.rowPtr[:0], 0)
	ws.union = ws.union[:0]
	for _, ti := range batch {
		r.cands = e.source.Candidates(r.tasks[ti], decisionAt, r.cands[:0])
		start := len(ws.arena)
		for _, c := range r.cands {
			if c.Margin > 0 {
				ws.arena = append(ws.arena, c)
			}
		}
		if row := ws.arena[start:]; len(row) > len(batch) {
			slices.SortFunc(row, func(a, b Candidate) int {
				if a.Margin != b.Margin {
					if a.Margin > b.Margin {
						return -1
					}
					return 1
				}
				return a.Driver - b.Driver
			})
			ws.arena = ws.arena[:start+len(batch)]
			slices.SortFunc(ws.arena[start:], func(a, b Candidate) int { return a.Driver - b.Driver })
		}
		for _, c := range ws.arena[start:] {
			if ws.colEpoch[c.Driver] != ws.epoch {
				ws.colEpoch[c.Driver] = ws.epoch
				ws.union = append(ws.union, c.Driver)
			}
		}
		ws.rowPtr = append(ws.rowPtr, len(ws.arena))
	}
	slices.Sort(ws.union)
	for j, drv := range ws.union {
		ws.colIdx[drv] = j
	}

	// CSR edge arrays over the compact column space. Ascending driver
	// order within a row maps to ascending column ids because the
	// renumbering is monotone.
	ws.col = ws.col[:0]
	ws.w = ws.w[:0]
	ws.arr = ws.arr[:0]
	for _, c := range ws.arena {
		ws.col = append(ws.col, ws.colIdx[c.Driver])
		ws.w = append(ws.w, c.Margin)
		ws.arr = append(ws.arr, c.Arrival)
	}
	sp := matching.Sparse{
		Rows: len(batch), Cols: len(ws.union),
		RowPtr: ws.rowPtr, Col: ws.col, W: ws.w,
	}

	kind, eps := matching.KindHungarian, 0.0
	if algo == BatchAuction {
		// ε bounds both the optimality gap (≤ rows·ε, negligible
		// against fares of currency-unit magnitude) and the worst-case
		// bid count (≤ cols·maxW/ε on exactly tied margins — drivers at
		// identical coordinates). A much smaller ε would buy no
		// meaningful accuracy while letting a degenerate window stall
		// the whole market for the length of its ε-step price war.
		kind, eps = matching.KindAuction, 1e-4
	}
	workers := e.MatchWorkers
	if workers < 1 {
		workers = 1
	}
	colOf, _, _, err := ws.solver.Solve(sp, kind, eps, workers)
	if err != nil {
		// The CSR is well-formed by construction.
		panic(fmt.Sprintf("sim: batch matching failed: %v", err))
	}

	for bi, ti := range batch {
		j := colOf[bi]
		if j < 0 {
			r.res.Rejected++
			if r.onDecided != nil {
				r.onDecided(TaskDecision{Task: ti, Driver: -1, At: decisionAt})
			}
			continue
		}
		k := ws.rowPtr[bi]
		for ws.col[k] != j {
			k++
		}
		drv := ws.union[j]
		r.assignTask(ti, Candidate{Driver: drv, Arrival: ws.arr[k], Margin: ws.w[k]}, r.tasks[ti])
		if r.onDecided != nil {
			r.onDecided(TaskDecision{Task: ti, Assigned: true, Driver: drv, PickupAt: ws.arr[k], At: decisionAt})
		}
	}
}

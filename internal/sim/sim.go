// Package sim is the online market simulator for §V of the paper: tasks
// arrive in publish-time order, the platform must respond instantly by
// assigning a candidate driver or rejecting the task, and drivers move
// through lock/unlock states as they serve assignments.
//
// The engine is event-driven: every entry point enqueues its work —
// task arrivals, driver joins and retirements, rider cancellations —
// onto one priority queue (see event.go) drained through a pluggable
// Clock, with a total, documented merge order for same-timestamp
// events. Candidate generation is pluggable too (CandidateSource):
// the exact linear scan, a grid-indexed pre-filter, and a zone-sharded
// source that queries per-zone spatial indexes concurrently all yield
// bit-identical results; only the wall-clock changes.
//
// The engine owns market state (driver positions, availability, earnings)
// and computes the candidate set for each arriving task exactly as
// Algorithms 3 and 4 prescribe: unlocked drivers who can reach the
// pickup from their current location by the pickup deadline, plus locked
// drivers who can reach it from their in-flight task's destination in
// time. A pluggable Dispatcher chooses among candidates, which is the
// only difference between the paper's two online heuristics.
//
// Driver availability is deadline-based by default, exactly as the
// paper's algorithms prescribe: a driver assigned task m' is treated as
// busy until the task's end deadline t̄+_m' (Algorithm 3/4 step (a) adds
// "locked drivers who can travel from their current destination d̄_m' to
// s̄_m during time t̄+_m' to t̄−_m"). This keeps every online assignment
// a feasible path of the offline task map, so the offline bound Z*_f
// applies to online runs too. Setting Engine.RealTime instead frees a
// driver at her *actual* finish time (arrival + service) — the §III-B
// remark that tasks may finish before t̄+_m — which gives online
// algorithms extra capacity the offline model cannot represent; it is
// kept as an ablation (see the bench harness).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/model"
)

// Candidate describes one feasible driver for an arriving task.
type Candidate struct {
	Driver  int     // index into the engine's driver slice
	Arrival float64 // earliest time the driver can reach the pickup
	Margin  float64 // δ_{n,m}, Eq. (14): marginal profit of accepting
}

// Dispatcher selects a candidate for each arriving task. Implementations
// must not retain the candidate slice. Returning -1 rejects the task.
type Dispatcher interface {
	Name() string
	Choose(task model.Task, cands []Candidate, rng *rand.Rand) int
}

// CandidateSource enumerates the feasible drivers for an arriving task.
// It is the engine's pluggable answer to "who can serve this?": the
// linear scan evaluates every driver (exact, O(N) per task), the
// grid-indexed source pre-filters with a spatial index, and the sharded
// source partitions the fleet into concurrent per-zone indexes — all
// running the same exact feasibility checks on the survivors, so every
// source produces identical candidate sets and therefore bit-identical
// simulation results.
//
// Implementations must append candidates in ascending driver order: the
// dispatchers' tie-breaking (and their consumption of the engine's RNG)
// is order-sensitive, and reproducibility across sources depends on a
// canonical order.
type CandidateSource interface {
	Name() string
	// Bind attaches the source to an engine and rebuilds any internal
	// state from the engine's current driver states and presence flags.
	// The engine calls it once per Run* entry point, right after
	// resetting driver state.
	Bind(e *Engine)
	// Candidates appends every feasible candidate for task into buf when
	// the dispatch decision happens at time now, and returns buf.
	Candidates(task model.Task, now float64, buf []Candidate) []Candidate
	// Moved notifies the source that driver i's engine state (location,
	// availability) changed after an assignment or a revocation.
	Moved(i int)
	// Presence notifies the source that driver i entered (mid-day join)
	// or left (retirement) the market. Absent drivers are never
	// candidates — the engine's exact feasibility check enforces that
	// regardless, so sources may treat this purely as a pruning hint.
	Presence(i int, present bool)
}

// Result aggregates a full simulation run. Per-driver slices are indexed
// like the input driver slice.
type Result struct {
	Served   int
	Rejected int

	// Cancelled counts tasks withdrawn by their rider before pickup —
	// dropped from a pending pool, or revoked after assignment (revoked
	// tasks are not double-counted in Served). Zero for event-free runs.
	Cancelled int

	Revenue     float64 // Σ p_m over served tasks (market revenue, Fig. 6)
	TotalProfit float64 // drivers' total profit, objective Eq. (4)

	PerDriverRevenue []float64
	PerDriverProfit  []float64
	PerDriverTasks   []int

	// DriverPaths[n] lists the task indices served by driver n in
	// service order; Assignment maps task index → driver index.
	DriverPaths [][]int
	Assignment  map[int]int
}

// ServeRate returns the fraction of tasks served (Fig. 7).
func (r Result) ServeRate() float64 {
	total := r.Served + r.Rejected
	if total == 0 {
		return 0
	}
	return float64(r.Served) / float64(total)
}

// AvgRevenuePerDriver returns mean revenue per driver (Fig. 8), over all
// drivers in the market including idle ones, matching the paper's
// "average payoff received by each driver".
func (r Result) AvgRevenuePerDriver() float64 {
	if len(r.PerDriverRevenue) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.PerDriverRevenue {
		sum += v
	}
	return sum / float64(len(r.PerDriverRevenue))
}

// AvgTasksPerDriver returns mean served tasks per driver (Fig. 9).
func (r Result) AvgTasksPerDriver() float64 {
	if len(r.PerDriverTasks) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.PerDriverTasks {
		sum += float64(v)
	}
	return sum / float64(len(r.PerDriverTasks))
}

// driverState is the engine's mutable view of one driver.
type driverState struct {
	freeAt  float64   // when the driver can next move (real finish time)
	loc     geo.Point // current position (last dropoff, or source)
	revenue float64
	cost    float64 // travel cost incurred so far (deadhead + service)
	ntasks  int

	// homeBits caches the current→home distance, Market.Dist(loc,
	// driver.Dest), as the complement of its float bits; 0 means not
	// computed yet, so a fresh or restored state starts empty. assign
	// clears it when it moves loc, a revocation restores the saved
	// state's own cache, and homeLegKm fills it on first use. Scoring
	// reads and fills it atomically so it stays safe to run from
	// several goroutines; it is a plain word, not an atomic type,
	// because driver states are copied by value.
	homeBits uint64
}

// Engine simulates one day of the online market. Construct with New.
type Engine struct {
	Market  model.Market
	Drivers []model.Driver

	// RealTime frees drivers at their actual finish time instead of the
	// served task's end deadline. See the package comment.
	RealTime bool

	// Clock paces the event drain of time-keyed runs; nil runs at full
	// speed (InstantClock).
	Clock Clock

	// MatchWorkers bounds the goroutines solving a batched window's
	// independent task–driver components concurrently; values below 2
	// solve serially. Results are bit-identical for every worker count
	// (the window differential tests sweep it) — the knob is purely
	// operational, like shard counts.
	MatchWorkers int

	// pricer, when installed via SetLivePricer, re-prices every arriving
	// order from live demand/supply observations (see livepricing.go).
	pricer       LivePricer
	pricerDecay  float64
	pricerMarkup float64

	states     []driverState
	present    []bool // false: not yet joined, or retired
	allIDs     []int  // 0..len(Drivers)-1, the linear scan's id list
	db         distBatch
	rng        *rand.Rand
	seed       int64           // the seed rng was constructed from
	rngSrc     *countingSource // rng's underlying source, counting draws
	source     CandidateSource
	winScratch *windowScratch // pooled batched-window working set

	// windowHook, when set by tests, sees every batched window right
	// before it is solved and committed. Returning true means the hook
	// committed the window itself (the dense oracle does), and the
	// sparse solve is skipped.
	windowHook func(r *eventRun, batch []int, decisionAt float64) bool
}

// New returns an engine over the given market and drivers. It returns an
// error if the inputs fail validation.
func New(m model.Market, drivers []model.Driver, seed int64) (*Engine, error) {
	if err := model.ValidateAll(m, drivers, nil); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	src := newCountingSource(seed)
	e := &Engine{
		Market:  m,
		Drivers: append([]model.Driver(nil), drivers...),
		rng:     rand.New(src),
		seed:    seed,
		rngSrc:  src,
		source:  &ScanSource{},
	}
	e.reset()
	return e, nil
}

// countingSource wraps the seeded RNG source and counts every draw, so
// a suspended run's RNG position is recoverable: re-seeding and
// discarding the same number of draws reproduces the source state
// bit-for-bit (each Int63/Uint64 call advances math/rand's generator by
// exactly one step regardless of which method was called). The durable
// snapshot/restore rail depends on this to keep tie-breaking policies
// (Nearest, Random) deterministic across a crash.
type countingSource struct {
	src rand.Source
	s64 rand.Source64 // src's Source64 view, nil if unsupported
	n   uint64        // draws consumed so far
}

func newCountingSource(seed int64) *countingSource {
	src := rand.NewSource(seed)
	s64, _ := src.(rand.Source64)
	return &countingSource{src: src, s64: s64}
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	if c.s64 != nil {
		return c.s64.Uint64()
	}
	// Mirror math/rand's fallback; counts as one draw per underlying
	// call so replaying n Int63 draws still lands on the same state.
	c.n++
	return uint64(c.src.Int63())>>31 | uint64(c.src.Int63())<<32
}

func (c *countingSource) Seed(seed int64) {
	c.n = 0
	c.src.Seed(seed)
}

// RNGDraws reports how many draws the engine's tie-breaking RNG has
// consumed since construction (or the last SeekRNG). Part of the
// engine's restorable state.
func (e *Engine) RNGDraws() uint64 { return e.rngSrc.n }

// SeekRNG rewinds the engine's RNG to its seed and fast-forwards it by
// n draws, restoring the exact generator state a run that had consumed
// RNGDraws() == n draws was suspended at.
func (e *Engine) SeekRNG(n uint64) {
	src := newCountingSource(e.seed)
	for i := uint64(0); i < n; i++ {
		src.src.Int63()
	}
	src.n = n
	e.rngSrc = src
	e.rng = rand.New(src)
}

// SetCandidateSource swaps the engine's candidate generation strategy.
// Passing nil restores the default linear scan. The source is rebound at
// the start of every Run*, so it may be set at any time between runs.
func (e *Engine) SetCandidateSource(src CandidateSource) {
	if src == nil {
		src = &ScanSource{}
	}
	e.source = src
	e.source.Bind(e)
}

func (e *Engine) reset() {
	e.resetAbsent(nil)
}

// resetAbsent rebuilds driver state for a fresh run, marking the listed
// drivers absent (they join mid-run via events) before the candidate
// source rebuilds its indexes from the presence flags.
func (e *Engine) resetAbsent(absent []int) {
	e.states = make([]driverState, len(e.Drivers))
	e.present = make([]bool, len(e.Drivers))
	for i, d := range e.Drivers {
		e.states[i] = driverState{freeAt: d.Start, loc: d.Source}
		e.present[i] = true
	}
	for _, i := range absent {
		e.present[i] = false
	}
	e.source.Bind(e)
}

// Run processes the tasks in publish order through the dispatcher and
// returns the aggregated result. The engine resets its state first, so
// one engine can run several dispatchers in sequence; tasks are not
// mutated. It is RunScenario with no dynamic events.
func (e *Engine) Run(tasks []model.Task, d Dispatcher) Result {
	return e.RunScenario(tasks, nil, d)
}

// RunScenario simulates the day under instant dispatch with dynamic
// market events interleaved into the arrival stream: drivers joining
// and retiring mid-day, riders cancelling before pickup. Events are
// validated against the inputs (indices are positions in the slices,
// as in model.Trace); invalid scenarios panic, as they are static
// test/experiment inputs. A nil or empty event slice reproduces Run
// exactly.
func (e *Engine) RunScenario(tasks []model.Task, events []model.MarketEvent, d Dispatcher) Result {
	r := e.newEventRun(tasks, events, true)
	r.d = d
	r.onArrival = r.instantArrival
	for i := range tasks {
		r.add(event{key: tasks[i].Publish, kind: evArrival, seq: i, at: tasks[i].Publish, idx: i})
	}
	r.drain()
	e.settle(&r.res)
	return r.res
}

// RunByValue processes tasks in descending price order — the offline
// variant of the maximum-marginal-value heuristic the paper sketches at
// the end of §V-B ("it will be more efficient to deal with the tasks
// which have higher values firstly"). Each dispatch decision still
// happens at the task's own publish time; only the drain order changes,
// so the run is keyed by price, not time, and supports no churn events.
func (e *Engine) RunByValue(tasks []model.Task, d Dispatcher) Result {
	r := e.newEventRun(tasks, nil, false)
	r.d = d
	r.onArrival = r.instantArrival
	for i := range tasks {
		r.add(event{key: -tasks[i].Price, kind: evArrival, seq: i, at: tasks[i].Publish, idx: i})
	}
	r.drain()
	e.settle(&r.res)
	return r.res
}

// settle closes per-driver accounts: profit is revenue minus excess
// cost, where excess cost adds the final leg home and credits the
// baseline source→destination trip (Eq. 4).
func (e *Engine) settle(res *Result) {
	for i := range e.states {
		st := &e.states[i]
		drv := e.Drivers[i]
		res.PerDriverRevenue[i] = st.revenue
		res.PerDriverTasks[i] = st.ntasks
		if st.ntasks == 0 {
			continue
		}
		homeCost := e.Market.TravelCostKm(e.homeLegKm(i))
		excess := st.cost + homeCost - e.Market.BaselineCost(drv)
		res.PerDriverProfit[i] = st.revenue - excess
		res.TotalProfit += res.PerDriverProfit[i]
		res.Revenue += st.revenue
	}
}

// candidates computes the feasible driver set for the task when the
// dispatch decision is made at time now (== task.Publish for instant
// dispatch; later for batched dispatch), appending into buf. It is the
// exact linear scan that ScanSource exposes, batching shared-endpoint
// distances through Market.Batch when one is installed.
func (e *Engine) candidates(task model.Task, now float64, buf []Candidate) []Candidate {
	service := e.Market.TravelTime(task.Source, task.Dest, 0)
	serviceCost := e.Market.ServiceCost(task)
	if cap(e.allIDs) < len(e.Drivers) {
		e.allIDs = make([]int, len(e.Drivers))
		for i := range e.allIDs {
			e.allIDs[i] = i
		}
	}
	return e.scoreCandidates(&e.db, e.allIDs[:len(e.Drivers)], task, now, service, serviceCost, buf)
}

// candidateFor runs the exact feasibility checks of Algorithms 3–4 for
// one driver; service and serviceCost are the task-only terms hoisted out
// of the per-driver loop. It is the per-pair composition of
// pickupArrival and finishCandidate — the batched scoring path
// (scoreCandidates) runs the same two stages over whole candidate sets
// with the distances computed in shared-endpoint batches, and must stay
// value-identical to this function.
func (e *Engine) candidateFor(i int, task model.Task, now, service, serviceCost float64) (Candidate, bool) {
	if !e.present[i] {
		return Candidate{}, false // not yet joined, or retired
	}
	pickupKm := e.Market.Dist(e.states[i].loc, task.Source)
	arrival, ok := e.pickupArrival(i, task, now, pickupKm)
	if !ok {
		return Candidate{}, false
	}
	homeKm := e.Market.Dist(task.Dest, e.Drivers[i].Dest)
	return e.finishCandidate(i, task, service, serviceCost, arrival, pickupKm, homeKm)
}

// pickupArrival computes when driver i would reach the pickup (given
// the already-computed distance from her location to it) and checks the
// pickup-deadline clause. The second return is false when she cannot
// make the pickup.
func (e *Engine) pickupArrival(i int, task model.Task, now, pickupKm float64) (float64, bool) {
	drv := e.Drivers[i]
	st := &e.states[i]

	depart := st.freeAt
	if depart < now && st.ntasks > 0 {
		// The driver has been idle at her last dropoff since
		// freeAt; she departs when notified.
		depart = now
	}
	if st.ntasks == 0 {
		// Not yet started: she leaves her source no earlier than
		// shift start or the task's arrival, whichever is later.
		if depart < now {
			depart = now
		}
		if depart < drv.Start {
			depart = drv.Start
		}
	}
	arrival := depart + e.Market.TravelTimeKm(pickupKm, drv.SpeedKmh)
	if arrival > task.StartBy {
		return 0, false // cannot reach the pickup by its deadline
	}
	return arrival, true
}

// finishCandidate applies the dropoff-deadline and return-home clauses
// and prices the margin; pickupKm and homeKm are the already-computed
// location→pickup and dropoff→home distances.
func (e *Engine) finishCandidate(i int, task model.Task, service, serviceCost, arrival, pickupKm, homeKm float64) (Candidate, bool) {
	drv := e.Drivers[i]

	finish := arrival + service
	if finish > task.EndBy {
		return Candidate{}, false // cannot complete by the dropoff deadline
	}
	// Return-home clause: after the task the driver must still make
	// her own destination by shift end. In deadline mode she is held
	// until t̄+_m, matching Eqs. (2)–(3); in real-time mode she
	// leaves at her actual finish.
	releasedAt := task.EndBy
	if e.RealTime {
		releasedAt = finish
	}
	if releasedAt+e.Market.TravelTimeKm(homeKm, drv.SpeedKmh) > drv.End {
		return Candidate{}, false
	}

	// δ_{n,m}, Eq. (14): price minus the marginal cost of inserting
	// the task after the driver's current plan.
	deadhead := e.Market.TravelCostKm(pickupKm)
	newHome := e.Market.TravelCostKm(homeKm)
	oldHome := e.Market.TravelCostKm(e.homeLegKm(i))
	margin := task.Price - (deadhead + serviceCost + newHome - oldHome)

	return Candidate{Driver: i, Arrival: arrival, Margin: margin}, true
}

// homeLegKm returns the distance from driver i's current location to
// her destination, computing it once per location. Its TravelCostKm is
// bitwise TravelCost(loc, Dest): the same Dist value, converted by the
// same float operation.
func (e *Engine) homeLegKm(i int) float64 {
	st := &e.states[i]
	if b := atomic.LoadUint64(&st.homeBits); b != 0 {
		return math.Float64frombits(^b)
	}
	km := e.Market.Dist(st.loc, e.Drivers[i].Dest)
	atomic.StoreUint64(&st.homeBits, ^math.Float64bits(km))
	return km
}

// assign commits the task to the candidate driver.
func (e *Engine) assign(c Candidate, task model.Task) {
	st := &e.states[c.Driver]
	st.cost += e.Market.TravelCost(st.loc, task.Source) + e.Market.ServiceCost(task)
	st.revenue += task.Price
	st.ntasks++
	if e.RealTime {
		st.freeAt = c.Arrival + e.Market.TravelTime(task.Source, task.Dest, 0)
	} else {
		st.freeAt = task.EndBy
	}
	st.loc = task.Dest
	st.homeBits = 0
	e.source.Moved(c.Driver)
	if e.pricer != nil {
		// The driver's capacity frees next at the dropoff zone.
		e.pricer.ObserveSupply(task.Dest, 1)
	}
}

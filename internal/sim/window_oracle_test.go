package sim

import (
	"fmt"
	"sort"

	"repro/internal/matching"
)

// closeBatchDense is the pre-decomposition window solve — one dense
// Hungarian/Auction instance over the whole window — kept verbatim as
// the oracle the sparse path is differentially tested against.
//
// The weight matrix is compacted in two canonical steps. First, each
// row keeps only its top len(batch) candidates by (margin, then driver
// index): a maximum-weight matching never needs more — if an optimal
// matching used a column outside a row's top-k, at least one of the k
// higher-ranked columns is unmatched (only k−1 other rows exist) and
// an exchange to it preserves the total — so the optimum is exact, not
// approximated. Second, columns shrink to the union of the surviving
// drivers in ascending order. Carrying the whole fleet instead would
// make the Hungarian reduction O((batch+fleet)³) — hours at 50k
// drivers for a matrix whose decisive columns number a few dozen.
// Every candidate source produces the identical candidate sets (the
// differential contract) and both steps are deterministic, so results
// stay bit-identical across sources and shard counts.
func (e *Engine) closeBatchDense(r *eventRun, batch []int, decisionAt float64, algo BatchAlgorithm) {
	// Per-task candidate sets — pruned to the decisive top — and the
	// sorted union of their drivers.
	cands := make([][]Candidate, len(batch))
	inUnion := make(map[int]bool)
	var union []int
	for bi, ti := range batch {
		r.cands = e.source.Candidates(r.tasks[ti], decisionAt, r.cands[:0])
		cs := append([]Candidate(nil), r.cands...)
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
	col := make(map[int]int, len(union)) // driver -> compact column
	for j, drv := range union {
		col[drv] = j
	}

	// Weight matrix: rows = batch tasks, cols = candidate drivers;
	// margins δ_{n,m} at decision time, Forbidden where infeasible.
	w := make([][]float64, len(batch))
	arrivals := make([][]float64, len(batch))
	for bi := range batch {
		w[bi] = make([]float64, len(union))
		arrivals[bi] = make([]float64, len(union))
		for j := range w[bi] {
			w[bi][j] = matching.Forbidden
		}
		for _, c := range cands[bi] {
			j := col[c.Driver]
			w[bi][j] = c.Margin
			arrivals[bi][j] = c.Arrival
		}
	}

	var asg matching.Assignment
	var err error
	switch algo {
	case BatchAuction:
		// ε bounds both the optimality gap (≤ rows·ε, negligible
		// against fares of currency-unit magnitude) and the worst-case
		// bid count (≤ cols·maxW/ε on exactly tied margins — drivers at
		// identical coordinates). A much smaller ε would buy no
		// meaningful accuracy while letting a degenerate window stall
		// the whole market for the length of its ε-step price war.
		asg, err = matching.Auction(w, 1e-4)
	default:
		asg, err = matching.Hungarian(w)
	}
	if err != nil {
		// The matrix is rectangular by construction.
		panic(fmt.Sprintf("sim: batch matching failed: %v", err))
	}

	for bi, ti := range batch {
		j := asg.ColOf[bi]
		if j < 0 {
			r.res.Rejected++
			if r.onDecided != nil {
				r.onDecided(TaskDecision{Task: ti, Driver: -1, At: decisionAt})
			}
			continue
		}
		drv := union[j]
		r.assignTask(ti, Candidate{Driver: drv, Arrival: arrivals[bi][j], Margin: w[bi][j]}, r.tasks[ti])
		if r.onDecided != nil {
			r.onDecided(TaskDecision{Task: ti, Assigned: true, Driver: drv, PickupAt: arrivals[bi][j], At: decisionAt})
		}
	}
}

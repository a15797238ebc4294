package sim

import (
	"repro/internal/geo"
	"repro/internal/model"
)

// This file is the engine side of batched candidate scoring. Scoring a
// task against k drivers needs three distances per driver, and two of
// them share a task endpoint across the whole set: location→pickup
// (shared destination) and dropoff→home (shared origin). When the
// market installs a model.DistanceBatcher (dispatch wires the road
// router in), those two become one one-to-many batch each —
// roadnet.Router answers a batch from a single shared half-search —
// instead of 2k point-to-point queries. The batcher contract demands
// bitwise-equal distances, and the scoring stages below are the same
// pickupArrival/finishCandidate pair the per-pair path runs, so batched
// and looped scoring are value-identical (the roadnet differential
// tests replay full traces both ways to prove it).

// minDistBatch is the smallest candidate set routed through the
// batcher: below it, the shared half-search cannot amortize and the
// per-pair loop is at least as fast.
const minDistBatch = 8

// distBatch is one scoring pass's scratch. Each caller that may score
// concurrently owns one (the engine for the linear scan, each
// ShardedSource zone).
type distBatch struct {
	ids   []int       // surviving driver indices
	pts   []geo.Point // batch endpoints (locations, then home dests)
	kms   []float64   // location→pickup distances
	arr   []float64   // pickup arrival times
	homes []float64   // dropoff→home distances
}

// scoreCandidates runs the exact feasibility checks of Algorithms 3–4
// over ids (which must be in ascending driver order), appending the
// feasible candidates to buf in that order. With a market batcher and
// enough drivers the distances come from shared-endpoint batches;
// otherwise this is exactly the candidateFor loop.
func (e *Engine) scoreCandidates(db *distBatch, ids []int, task model.Task, now, service, serviceCost float64, buf []Candidate) []Candidate {
	batcher := e.Market.Batch
	if batcher == nil || len(ids) < minDistBatch {
		for _, i := range ids {
			if c, ok := e.candidateFor(i, task, now, service, serviceCost); ok {
				buf = append(buf, c)
			}
		}
		return buf
	}

	// Stage 1: location→pickup for every present driver, one
	// many-to-one batch (the pickup is the shared destination).
	db.ids = db.ids[:0]
	db.pts = db.pts[:0]
	for _, i := range ids {
		if !e.present[i] {
			continue
		}
		db.ids = append(db.ids, i)
		db.pts = append(db.pts, e.states[i].loc)
	}
	db.kms = growFloats(db.kms, len(db.ids))
	batcher.DistManyToInto(db.pts, task.Source, db.kms)

	// Stage 2: pickup- and dropoff-deadline clauses, which need no
	// further distances. Survivors compact in place, keeping order.
	db.arr = growFloats(db.arr, len(db.ids))
	db.pts = db.pts[:0]
	keep := 0
	for k, i := range db.ids {
		arrival, ok := e.pickupArrival(i, task, now, db.kms[k])
		if !ok || arrival+service > task.EndBy {
			continue
		}
		db.ids[keep] = i
		db.kms[keep] = db.kms[k]
		db.arr[keep] = arrival
		db.pts = append(db.pts, e.Drivers[i].Dest)
		keep++
	}
	if keep == 0 {
		return buf
	}

	// Stage 3: dropoff→home for the survivors, one one-to-many batch
	// (the dropoff is the shared origin), then the remaining clauses.
	db.homes = growFloats(db.homes, keep)
	batcher.DistManyInto(task.Dest, db.pts, db.homes)
	for k := 0; k < keep; k++ {
		if c, ok := e.finishCandidate(db.ids[k], task, service, serviceCost, db.arr[k], db.kms[k], db.homes[k]); ok {
			buf = append(buf, c)
		}
	}
	return buf
}

// growFloats returns s resized to n elements, reallocating only when
// capacity is short (contents are overwritten by the caller).
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

package roadnet

import (
	"math"
	"sync"
)

// This file implements contraction hierarchies (Geisberger et al.): a
// preprocessing pass contracts nodes one by one in edge-difference
// order, inserting shortcut arcs that preserve shortest-path distances
// among the remaining nodes, and queries become two small *upward*
// Dijkstra searches — forward from the source and backward from the
// target, both only ever climbing toward higher-ranked nodes — that
// meet at the highest node of some shortest path. The upward search
// spaces are tiny compared to plain Dijkstra's, which is what makes
// Router.nodeDist cheap, and the structure batches
// naturally: one-to-many queries share one half of the search (the
// shared endpoint's full upward cone doubles as the bucket array the
// per-target searches scan), so an order's distances to all its
// candidate drivers cost one search plus a small probe per driver.
//
// On small graphs (see chLabelMaxNodes) preprocessing goes one step
// further and freezes every node's upward cones into hub labels — the
// canonical CH-derived labeling — so a query degenerates to scanning
// two short arrays for their cheapest common hub: no heap, no
// relaxation, no per-query allocation. The bidirectional search kernel
// remains both the fallback for large graphs and the machine that
// builds the labels.
//
// Bit-identity discipline: the rest of the repository asserts that
// every routing kernel returns distances bitwise equal to Dijkstra's.
// Dijkstra accumulates edge weights left-associatively in path order
// (dist[v] = dist[u] + w), while a CH search sums shortcut weights —
// the same magnitudes grouped differently, which IEEE float addition
// does not forgive. Queries therefore never return the search's own
// sum: they unpack the winning up-down path's shortcuts back to the
// original edge sequence and re-accumulate the edge weights in path
// order, reproducing Dijkstra's float operations exactly (for unique
// shortest paths, which the generators' jittered weights make the only
// realistic case). The CH weights only steer the search.

// chArc is one arc of the contracted graph: every original directed
// edge plus every shortcut. Shortcuts remember the two arcs they
// replaced (left: from→mid, right: mid→to) so unpacking is a walk down
// a binary tree whose leaves are original edges.
type chArc struct {
	from, to    int32
	km          float64
	left, right int32 // child arc indices; -1/-1 on original edges
}

// chRef is one adjacency entry of the upward search graphs.
type chRef struct {
	node int32
	arc  int32
	km   float64
}

// Hierarchy is the preprocessed contraction hierarchy for one graph.
// Build with BuildHierarchy; queries are safe for concurrent use (each
// borrows scratch from an internal pool).
type Hierarchy struct {
	n         int
	rank      []int32 // node -> contraction order (0 = contracted first)
	arcs      []chArc
	shortcuts int

	// Upward adjacency in CSR layout (offset + flat ref arrays), so the
	// query inner loops scan contiguous memory instead of chasing
	// per-node slice headers: fwd holds arcs u→w with rank[w] > rank[u]
	// keyed by u; bwd holds arcs u→w with rank[u] > rank[w] keyed by w.
	fwdOff, bwdOff []int32
	fwdRef, bwdRef []chRef

	// Hub labels (small graphs only; see chLabelMaxNodes): a node's
	// forward label is its entire upward cone — every hub it can climb
	// to, with the CH weight and the search-tree parent entry, so the
	// winning up-down path unpacks without re-running any search.
	// CSR layout again; entries sit in settle order, which guarantees a
	// parent entry always precedes its children within one label.
	labOffF, labOffB []int32
	labF, labB       []labEntry

	pool sync.Pool // *chScratch
}

// labEntry is one hub of a node's label. parent chains entries within
// the same label (-1 at the label's own node); arc is the CH arc from
// the parent hub into this hub (forward labels) or out of it (backward
// labels), -1 at the root.
type labEntry struct {
	dist   float64
	hub    int32
	parent int32
	arc    int32
}

// labeled reports whether the hub-label tier was built.
func (h *Hierarchy) labeled() bool { return h.labOffF != nil }

func (h *Hierarchy) labFAt(x int32) []labEntry { return h.labF[h.labOffF[x]:h.labOffF[x+1]] }
func (h *Hierarchy) labBAt(x int32) []labEntry { return h.labB[h.labOffB[x]:h.labOffB[x+1]] }

// fwdAt / bwdAt return a node's upward adjacency slice.
func (h *Hierarchy) fwdAt(x int32) []chRef { return h.fwdRef[h.fwdOff[x]:h.fwdOff[x+1]] }
func (h *Hierarchy) bwdAt(x int32) []chRef { return h.bwdRef[h.bwdOff[x]:h.bwdOff[x+1]] }

// witnessSettleCap bounds each witness search during preprocessing. An
// inconclusive search just inserts a (possibly redundant) shortcut,
// which costs query time but never correctness, so the cap only trades
// preprocessing speed against hierarchy sparsity.
const witnessSettleCap = 256

// chLabelMaxNodes gates the hub-label tier: below this node count,
// preprocessing additionally runs every node's upward searches to
// exhaustion and stores the settled cones as labels, turning queries
// into array scans with no heap at all. Label storage is the sum of all
// cone sizes — about O(n·√n) on grid-like graphs — so the tier is
// limited to graphs where that stays in the tens of megabytes; larger
// graphs fall back to the bidirectional search kernel.
const chLabelMaxNodes = 4096

// chHeapItem / chHeap implement the searches' priority queue without
// container/heap's interface boxing. Ties break on node id so every
// search settles nodes in a deterministic order.
type chHeapItem struct {
	dist float64
	node int32
}

type chHeap []chHeapItem

func chLess(a, b chHeapItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
}

func (h *chHeap) push(it chHeapItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !chLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *chHeap) pop() chHeapItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && chLess(q[l], q[small]) {
			small = l
		}
		if r < n && chLess(q[r], q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// chBuilder is the mutable preprocessing state: the "core" graph of
// not-yet-contracted nodes, maintained as in/out lists of arc indices
// (stale entries pointing at contracted endpoints are skipped lazily).
type chBuilder struct {
	arcs       []chArc
	out, in    [][]int32 // node -> arc indices (u→·) / (·→w)
	contracted []bool
	deleted    []int32 // contracted-neighbor count, for priorities
	level      []int32 // hop-depth bound: 1 + max level of contracted neighbors

	// witness-search scratch (epoch-stamped so clears are O(touched))
	wdist []float64
	wlab  []uint32
	wdone []uint32
	wep   uint32
	wheap chHeap

	// neighbor-dedup scratch for the deleted-neighbor update
	nbSeen []uint32
	nbEp   uint32
}

// BuildHierarchy preprocesses g into a contraction hierarchy. The pass
// is deterministic: priorities are integers, every tie breaks on node
// id, and arc insertion order is fixed, so two builds of the same graph
// produce identical hierarchies.
func BuildHierarchy(g *Graph) *Hierarchy {
	n := g.NumNodes()
	b := &chBuilder{
		out:        make([][]int32, n),
		in:         make([][]int32, n),
		contracted: make([]bool, n),
		deleted:    make([]int32, n),
		level:      make([]int32, n),
		wdist:      make([]float64, n),
		wlab:       make([]uint32, n),
		wdone:      make([]uint32, n),
		nbSeen:     make([]uint32, n),
	}
	for u := 0; u < n; u++ {
		for _, e := range g.adj[u] {
			idx := int32(len(b.arcs))
			b.arcs = append(b.arcs, chArc{from: int32(u), to: e.to, km: e.km, left: -1, right: -1})
			b.out[u] = append(b.out[u], idx)
			b.in[e.to] = append(b.in[e.to], idx)
		}
	}

	// Lazy edge-difference ordering: pop the cheapest node, recompute
	// its priority (contractions elsewhere may have changed it), and
	// contract only if it still beats the queue's next candidate.
	var q chHeap
	for v := int32(0); v < int32(n); v++ {
		sc, rm := b.contract(v, false)
		q.push(chHeapItem{dist: b.priority(v, sc, rm), node: v})
	}
	h := &Hierarchy{n: n, rank: make([]int32, n), shortcuts: 0}
	order := int32(0)
	for len(q) > 0 {
		it := q.pop()
		v := it.node
		if b.contracted[v] {
			continue // stale duplicate entry
		}
		sc, rm := b.contract(v, false)
		prio := b.priority(v, sc, rm)
		if len(q) > 0 && prio > q[0].dist {
			q.push(chHeapItem{dist: prio, node: v})
			continue
		}
		added, _ := b.contract(v, true)
		h.shortcuts += added
		b.markContracted(v)
		h.rank[v] = order
		order++
	}

	h.arcs = b.arcs
	// Two counting passes build the CSR adjacency with refs in arc-index
	// order per node (deterministic, same order appends would give).
	h.fwdOff = make([]int32, n+1)
	h.bwdOff = make([]int32, n+1)
	for idx := range h.arcs {
		a := &h.arcs[idx]
		if h.rank[a.from] < h.rank[a.to] {
			h.fwdOff[a.from+1]++
		} else {
			h.bwdOff[a.to+1]++
		}
	}
	for i := 0; i < n; i++ {
		h.fwdOff[i+1] += h.fwdOff[i]
		h.bwdOff[i+1] += h.bwdOff[i]
	}
	h.fwdRef = make([]chRef, h.fwdOff[n])
	h.bwdRef = make([]chRef, h.bwdOff[n])
	fNext := make([]int32, n)
	bNext := make([]int32, n)
	for idx := range h.arcs {
		a := &h.arcs[idx]
		ref := chRef{arc: int32(idx), km: a.km}
		if h.rank[a.from] < h.rank[a.to] {
			ref.node = a.to
			h.fwdRef[h.fwdOff[a.from]+fNext[a.from]] = ref
			fNext[a.from]++
		} else {
			ref.node = a.from
			h.bwdRef[h.bwdOff[a.to]+bNext[a.to]] = ref
			bNext[a.to]++
		}
	}
	h.pool.New = func() any { return newCHScratch(n) }
	h.buildLabels()
	return h
}

// buildLabels runs every node's forward and backward upward searches to
// exhaustion and freezes the settled cones as hub labels (small graphs
// only; see chLabelMaxNodes). With labels, a point-to-point query is a
// scan over two short arrays — no heap, no relaxation — and the stored
// parent chains reproduce exactly the search trees the live searches
// would have built, so unpacking stays bitwise-identical to Dijkstra.
func (h *Hierarchy) buildLabels() {
	if h.n == 0 || h.n > chLabelMaxNodes {
		return
	}
	sc := newCHScratch(h.n)
	pos := make([]int32, h.n) // node -> entry index within the current label
	h.labOffF = make([]int32, 1, h.n+1)
	h.labOffB = make([]int32, 1, h.n+1)
	for u := int32(0); u < int32(h.n); u++ {
		h.forward(sc, u)
		for i, x := range sc.setF {
			pos[x] = int32(i)
			e := labEntry{dist: sc.distF[x], hub: x, parent: -1, arc: sc.parF[x]}
			if e.arc >= 0 {
				e.parent = pos[h.arcs[e.arc].from]
			}
			h.labF = append(h.labF, e)
		}
		h.labOffF = append(h.labOffF, int32(len(h.labF)))

		h.backward(sc, u)
		for i, x := range sc.setB {
			pos[x] = int32(i)
			e := labEntry{dist: sc.distB[x], hub: x, parent: -1, arc: sc.parB[x]}
			if e.arc >= 0 {
				e.parent = pos[h.arcs[e.arc].to]
			}
			h.labB = append(h.labB, e)
		}
		h.labOffB = append(h.labOffB, int32(len(h.labB)))
	}
}

// NumShortcuts returns the number of shortcut arcs the preprocessing
// inserted (for stats, benches and tests).
func (h *Hierarchy) NumShortcuts() int { return h.shortcuts }

// Rank returns node id's contraction order (for determinism tests).
func (h *Hierarchy) Rank(id int) int { return int(h.rank[id]) }

// priority scores node v for the contraction order: the edge
// difference (shortcuts added minus arcs removed) dominates, with
// contracted-neighbor and hop-depth terms spreading contraction evenly
// across the graph — the depth term is what keeps upward search cones
// shallow, and with it query search spaces stay near-logarithmic.
func (b *chBuilder) priority(v int32, shortcuts, removed int) float64 {
	// The integer terms produce huge tie groups (every interior grid
	// node starts identical), and breaking ties by node id would
	// contract spatially sequential waves of adjacent nodes — long
	// shortcut chains, deep hierarchies, linear-size query cones. A
	// sub-integer hash jitter keeps the order deterministic while
	// scattering each tie group uniformly across the graph.
	jitter := float64(uint32(v)*2654435761) * (1.0 / (1 << 40))
	return float64(2*(shortcuts-removed)) + float64(b.deleted[v]) + float64(b.level[v]) + jitter
}

// contract simulates (apply=false) or performs (apply=true) the
// contraction of v: for every in-neighbor u and out-neighbor w still in
// the core, a shortcut u→w of weight km(u→v)+km(v→w) is needed unless a
// witness path of at most that weight avoids v. It returns the number
// of shortcuts needed/added and the number of core arcs contraction
// removes (the edge-difference terms).
func (b *chBuilder) contract(v int32, apply bool) (shortcuts, removed int) {
	for _, ai := range b.in[v] {
		if b.contracted[b.arcs[ai].from] {
			continue
		}
		removed++
	}
	for _, ai := range b.out[v] {
		if b.contracted[b.arcs[ai].to] {
			continue
		}
		removed++
	}
	for _, ai := range b.in[v] {
		u := b.arcs[ai].from
		if b.contracted[u] {
			continue
		}
		inKm := b.arcs[ai].km
		// Bound the witness search by the largest shortcut this u would
		// need; paths longer than that can never refute one.
		maxKm := -1.0
		for _, ao := range b.out[v] {
			w := b.arcs[ao].to
			if b.contracted[w] || w == u {
				continue
			}
			if d := inKm + b.arcs[ao].km; d > maxKm {
				maxKm = d
			}
		}
		if maxKm < 0 {
			continue // no out-neighbor other than u survives
		}
		b.witnessSearch(u, v, maxKm)
		for _, ao := range b.out[v] {
			w := b.arcs[ao].to
			if b.contracted[w] || w == u {
				continue
			}
			need := inKm + b.arcs[ao].km
			if b.wdone[w] == b.wep && b.wdist[w] <= need {
				continue // witness avoids v at no extra cost
			}
			shortcuts++
			if apply {
				idx := int32(len(b.arcs))
				b.arcs = append(b.arcs, chArc{from: u, to: w, km: need, left: ai, right: ao})
				b.out[u] = append(b.out[u], idx)
				b.in[w] = append(b.in[w], idx)
			}
		}
	}
	return shortcuts, removed
}

// witnessSearch runs a bounded Dijkstra from u over the core graph with
// v removed. Settled distances land in b.wdist under epoch b.wep; the
// search stops once the frontier exceeds maxKm or the settle cap.
func (b *chBuilder) witnessSearch(u, v int32, maxKm float64) {
	b.wep++
	b.wheap = b.wheap[:0]
	b.wdist[u] = 0
	b.wlab[u] = b.wep
	b.wheap.push(chHeapItem{dist: 0, node: u})
	settled := 0
	for len(b.wheap) > 0 {
		it := b.wheap.pop()
		x := it.node
		if b.wdone[x] == b.wep {
			continue
		}
		if b.wdist[x] > maxKm {
			break
		}
		b.wdone[x] = b.wep
		if settled++; settled > witnessSettleCap {
			break
		}
		for _, ai := range b.out[x] {
			a := &b.arcs[ai]
			if a.to == v || b.contracted[a.to] {
				continue
			}
			nd := b.wdist[x] + a.km
			if b.wlab[a.to] != b.wep || nd < b.wdist[a.to] {
				b.wlab[a.to] = b.wep
				b.wdist[a.to] = nd
				b.wheap.push(chHeapItem{dist: nd, node: a.to})
			}
		}
	}
}

// markContracted retires v from the core and bumps the deleted-neighbor
// counter of every surviving neighbor (each unique neighbor once).
func (b *chBuilder) markContracted(v int32) {
	b.contracted[v] = true
	b.nbEp++
	bump := func(n int32) {
		if !b.contracted[n] && b.nbSeen[n] != b.nbEp {
			b.nbSeen[n] = b.nbEp
			b.deleted[n]++
			if b.level[n] < b.level[v]+1 {
				b.level[n] = b.level[v] + 1
			}
		}
	}
	for _, ai := range b.in[v] {
		bump(b.arcs[ai].from)
	}
	for _, ai := range b.out[v] {
		bump(b.arcs[ai].to)
	}
}

// chScratch is one query's working set: epoch-stamped distance/parent
// arrays and a heap for each of the forward and backward upward
// searches, plus the unpacking buffers. Borrowed from the hierarchy's
// pool so concurrent queries never share state.
type chScratch struct {
	distF, distB []float64
	parF, parB   []int32
	labF, labB   []uint32
	doneF, doneB []uint32
	epF, epB     uint32
	heapF, heapB chHeap
	setF, setB   []int32 // settle order of the last exhaustive search
	srcF, srcB   int32   // label-mode batch anchors (see prepareF/prepareB)
	chain        []int32 // parent-walk buffer (arc indices)
	stack        []int32 // shortcut-expansion stack
}

func newCHScratch(n int) *chScratch {
	return &chScratch{
		distF: make([]float64, n), distB: make([]float64, n),
		parF: make([]int32, n), parB: make([]int32, n),
		labF: make([]uint32, n), labB: make([]uint32, n),
		doneF: make([]uint32, n), doneB: make([]uint32, n),
	}
}

func (h *Hierarchy) scratch() *chScratch { return h.pool.Get().(*chScratch) }

// forward runs the upward search from u to exhaustion, recording
// distance and parent arc for every settled node. The settled set is
// the "bucket" side of one-to-many batches: probeBackward scans it by
// array lookup.
func (h *Hierarchy) forward(sc *chScratch, u int32) {
	sc.epF++
	sc.heapF = sc.heapF[:0]
	sc.distF[u] = 0
	sc.parF[u] = -1
	sc.labF[u] = sc.epF
	sc.heapF.push(chHeapItem{dist: 0, node: u})
	sc.setF = sc.setF[:0]
	for len(sc.heapF) > 0 {
		it := sc.heapF.pop()
		x := it.node
		if sc.doneF[x] == sc.epF {
			continue
		}
		sc.doneF[x] = sc.epF
		sc.setF = append(sc.setF, x)
		for _, e := range h.fwdAt(x) {
			nd := sc.distF[x] + e.km
			if sc.labF[e.node] != sc.epF || nd < sc.distF[e.node] {
				sc.labF[e.node] = sc.epF
				sc.distF[e.node] = nd
				sc.parF[e.node] = e.arc
				sc.heapF.push(chHeapItem{dist: nd, node: e.node})
			}
		}
	}
}

// backward is forward's mirror: the upward search from v over the
// reverse graph, i.e. distB[x] = CH weight of the best down-path x→v.
func (h *Hierarchy) backward(sc *chScratch, v int32) {
	sc.epB++
	sc.heapB = sc.heapB[:0]
	sc.distB[v] = 0
	sc.parB[v] = -1
	sc.labB[v] = sc.epB
	sc.heapB.push(chHeapItem{dist: 0, node: v})
	sc.setB = sc.setB[:0]
	for len(sc.heapB) > 0 {
		it := sc.heapB.pop()
		x := it.node
		if sc.doneB[x] == sc.epB {
			continue
		}
		sc.doneB[x] = sc.epB
		sc.setB = append(sc.setB, x)
		for _, e := range h.bwdAt(x) {
			nd := sc.distB[x] + e.km
			if sc.labB[e.node] != sc.epB || nd < sc.distB[e.node] {
				sc.labB[e.node] = sc.epB
				sc.distB[e.node] = nd
				sc.parB[e.node] = e.arc
				sc.heapB.push(chHeapItem{dist: nd, node: e.node})
			}
		}
	}
}

// probeBackward runs the backward upward search from v against a
// prepared forward search (see forward), returning the unpacked,
// re-accumulated distance of the best meeting path — bitwise equal to
// Dijkstra from the forward search's source to v — or +Inf when the
// cones never meet (v unreachable).
func (h *Hierarchy) probeBackward(sc *chScratch, v int32) float64 {
	sc.epB++
	sc.heapB = sc.heapB[:0]
	best := math.Inf(1)
	meet := int32(-1)
	sc.distB[v] = 0
	sc.parB[v] = -1
	sc.labB[v] = sc.epB
	sc.heapB.push(chHeapItem{dist: 0, node: v})
	for len(sc.heapB) > 0 {
		it := sc.heapB.pop()
		x := it.node
		if sc.doneB[x] == sc.epB {
			continue
		}
		sc.doneB[x] = sc.epB
		if sc.distB[x] >= best {
			break // keys only grow; no later meet can improve
		}
		if sc.doneF[x] == sc.epF {
			if cand := sc.distF[x] + sc.distB[x]; cand < best {
				best = cand
				meet = x
			}
		}
		for _, e := range h.bwdAt(x) {
			nd := sc.distB[x] + e.km
			if sc.labB[e.node] != sc.epB || nd < sc.distB[e.node] {
				sc.labB[e.node] = sc.epB
				sc.distB[e.node] = nd
				sc.parB[e.node] = e.arc
				sc.heapB.push(chHeapItem{dist: nd, node: e.node})
			}
		}
	}
	if meet < 0 {
		return math.Inf(1)
	}
	return h.unpack(sc, meet)
}

// probeForward is probeBackward's mirror for many-to-one batches: a
// forward upward search from u against a prepared backward search,
// returning the unpacked distance u → (backward source).
func (h *Hierarchy) probeForward(sc *chScratch, u int32) float64 {
	sc.epF++
	sc.heapF = sc.heapF[:0]
	best := math.Inf(1)
	meet := int32(-1)
	sc.distF[u] = 0
	sc.parF[u] = -1
	sc.labF[u] = sc.epF
	sc.heapF.push(chHeapItem{dist: 0, node: u})
	for len(sc.heapF) > 0 {
		it := sc.heapF.pop()
		x := it.node
		if sc.doneF[x] == sc.epF {
			continue
		}
		sc.doneF[x] = sc.epF
		if sc.distF[x] >= best {
			break
		}
		if sc.doneB[x] == sc.epB {
			if cand := sc.distF[x] + sc.distB[x]; cand < best {
				best = cand
				meet = x
			}
		}
		for _, e := range h.fwdAt(x) {
			nd := sc.distF[x] + e.km
			if sc.labF[e.node] != sc.epF || nd < sc.distF[e.node] {
				sc.labF[e.node] = sc.epF
				sc.distF[e.node] = nd
				sc.parF[e.node] = e.arc
				sc.heapF.push(chHeapItem{dist: nd, node: e.node})
			}
		}
	}
	if meet < 0 {
		return math.Inf(1)
	}
	return h.unpack(sc, meet)
}

// unpack walks the winning up-down path through meet, expands every
// shortcut to its original edges, and re-accumulates the edge weights
// left-associatively in path order — the float operations Dijkstra
// itself would have performed along this path.
func (h *Hierarchy) unpack(sc *chScratch, meet int32) float64 {
	// Forward half: the parent walk discovers arcs tip-first, so stage
	// them and fold in reverse (source → meet order).
	sc.chain = sc.chain[:0]
	for a := sc.parF[meet]; a >= 0; a = sc.parF[h.arcs[a].from] {
		sc.chain = append(sc.chain, a)
	}
	d := 0.0
	for i := len(sc.chain) - 1; i >= 0; i-- {
		d = h.foldArc(sc, sc.chain[i], d)
	}
	// Backward half: the parent walk already runs meet → target.
	for a := sc.parB[meet]; a >= 0; a = sc.parB[h.arcs[a].to] {
		d = h.foldArc(sc, a, d)
	}
	return d
}

// foldArc adds arc a's original edge weights to the running sum in path
// order, expanding shortcuts depth-first (left child before right).
func (h *Hierarchy) foldArc(sc *chScratch, a int32, d float64) float64 {
	sc.stack = append(sc.stack[:0], a)
	for len(sc.stack) > 0 {
		top := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		arc := &h.arcs[top]
		if arc.left < 0 {
			d += arc.km
		} else {
			sc.stack = append(sc.stack, arc.right, arc.left) // left pops first
		}
	}
	return d
}

// Query returns the shortest-path distance from u to v, bitwise equal
// to Graph.ShortestPath's. Safe for concurrent use. With the hub-label
// tier built this is two array scans; otherwise the bidirectional
// search kernel runs.
func (h *Hierarchy) Query(u, v int) float64 {
	if u == v {
		return 0
	}
	sc := h.scratch()
	var d float64
	if h.labeled() {
		h.stampForwardLabel(sc, int32(u))
		d = h.probeBackwardLabel(sc, int32(v))
	} else {
		d = h.queryPTP(sc, int32(u), int32(v))
	}
	h.pool.Put(sc)
	return d
}

// stampForwardLabel loads u's forward label into the scratch arrays
// under a fresh epoch: distF holds the hub weight, parF the entry index
// (for unpacking). One stamp serves any number of probeBackwardLabel
// calls, which is what makes label-mode one-to-many batches a stamp
// plus one scan per target.
func (h *Hierarchy) stampForwardLabel(sc *chScratch, u int32) {
	sc.epF++
	sc.srcF = u
	lu := h.labFAt(u)
	for i := range lu {
		e := &lu[i]
		sc.labF[e.hub] = sc.epF
		sc.distF[e.hub] = e.dist
		sc.parF[e.hub] = int32(i)
	}
}

// probeBackwardLabel scans v's backward label against the stamped
// forward label, picks the cheapest common hub (first wins on exact
// ties, so the scan order itself is the deterministic tie-break), and
// unpacks the winning chains. Returns +Inf when the labels share no
// hub (v unreachable from the stamped source).
func (h *Hierarchy) probeBackwardLabel(sc *chScratch, v int32) float64 {
	lv := h.labBAt(v)
	best := math.Inf(1)
	bi, bj := int32(-1), int32(-1)
	for j := range lv {
		e := &lv[j]
		if sc.labF[e.hub] == sc.epF {
			if cand := sc.distF[e.hub] + e.dist; cand < best {
				best = cand
				bi, bj = sc.parF[e.hub], int32(j)
			}
		}
	}
	if bi < 0 {
		return math.Inf(1)
	}
	return h.unpackLabels(sc, h.labFAt(sc.srcF), lv, bi, bj)
}

// stampBackwardLabel / probeForwardLabel mirror the pair above for
// many-to-one batches (shared destination).
func (h *Hierarchy) stampBackwardLabel(sc *chScratch, v int32) {
	sc.epB++
	sc.srcB = v
	lv := h.labBAt(v)
	for i := range lv {
		e := &lv[i]
		sc.labB[e.hub] = sc.epB
		sc.distB[e.hub] = e.dist
		sc.parB[e.hub] = int32(i)
	}
}

func (h *Hierarchy) probeForwardLabel(sc *chScratch, u int32) float64 {
	lu := h.labFAt(u)
	best := math.Inf(1)
	bi, bj := int32(-1), int32(-1)
	for i := range lu {
		e := &lu[i]
		if sc.labB[e.hub] == sc.epB {
			if cand := e.dist + sc.distB[e.hub]; cand < best {
				best = cand
				bi, bj = int32(i), sc.parB[e.hub]
			}
		}
	}
	if bi < 0 {
		return math.Inf(1)
	}
	return h.unpackLabels(sc, lu, h.labBAt(sc.srcB), bi, bj)
}

// unpackLabels re-accumulates the up-down path whose halves end at
// forward entry bi and backward entry bj: the stored parent chains are
// exactly the live searches' parent walks, folded in the same path
// order, so the result matches Dijkstra bitwise (see unpack).
func (h *Hierarchy) unpackLabels(sc *chScratch, lu, lv []labEntry, bi, bj int32) float64 {
	sc.chain = sc.chain[:0]
	for e := bi; lu[e].arc >= 0; e = lu[e].parent {
		sc.chain = append(sc.chain, lu[e].arc)
	}
	d := 0.0
	for i := len(sc.chain) - 1; i >= 0; i-- {
		d = h.foldArc(sc, sc.chain[i], d)
	}
	for e := bj; lv[e].arc >= 0; e = lv[e].parent {
		d = h.foldArc(sc, lv[e].arc, d)
	}
	return d
}

// prepareForward readies scratch for a one-to-many batch anchored at
// origin node u; probeBackward answers each target. With labels the
// pair is stamp+scan, otherwise an exhaustive upward search feeds
// bucket probes.
func (h *Hierarchy) prepareForward(sc *chScratch, u int32) {
	if h.labeled() {
		h.stampForwardLabel(sc, u)
	} else {
		h.forward(sc, u)
	}
}

func (h *Hierarchy) probeTarget(sc *chScratch, v int32) float64 {
	if h.labeled() {
		return h.probeBackwardLabel(sc, v)
	}
	return h.probeBackward(sc, v)
}

// prepareBackward / probeSource mirror the pair above for many-to-one
// batches (shared destination).
func (h *Hierarchy) prepareBackward(sc *chScratch, v int32) {
	if h.labeled() {
		h.stampBackwardLabel(sc, v)
	} else {
		h.backward(sc, v)
	}
}

func (h *Hierarchy) probeSource(sc *chScratch, u int32) float64 {
	if h.labeled() {
		return h.probeForwardLabel(sc, u)
	}
	return h.probeForward(sc, u)
}

// queryPTP is the point-to-point kernel: both upward searches run
// interleaved (strictly alternating, for determinism) and each stops as
// soon as its next key cannot beat the best meeting found — unlike the
// one-to-many path, neither side runs to exhaustion. Meeting checks use
// the other side's tentative label; tentative values only overestimate,
// so best stays achievable and the optimal meet is re-checked with
// final values when its second settle lands. The winning path is
// unpacked and re-accumulated like every other query.
func (h *Hierarchy) queryPTP(sc *chScratch, u, v int32) float64 {
	sc.epF++
	sc.epB++
	sc.heapF = sc.heapF[:0]
	sc.heapB = sc.heapB[:0]
	sc.distF[u] = 0
	sc.parF[u] = -1
	sc.labF[u] = sc.epF
	sc.heapF.push(chHeapItem{dist: 0, node: u})
	sc.distB[v] = 0
	sc.parB[v] = -1
	sc.labB[v] = sc.epB
	sc.heapB.push(chHeapItem{dist: 0, node: v})
	best := math.Inf(1)
	meet := int32(-1)
	fwdTurn := true
	for len(sc.heapF) > 0 || len(sc.heapB) > 0 {
		dir := fwdTurn
		if dir && len(sc.heapF) == 0 {
			dir = false
		} else if !dir && len(sc.heapB) == 0 {
			dir = true
		}
		fwdTurn = !fwdTurn
		if dir {
			it := sc.heapF.pop()
			x := it.node
			if sc.doneF[x] == sc.epF {
				continue
			}
			if sc.distF[x] >= best {
				sc.heapF = sc.heapF[:0] // forward side exhausted
				continue
			}
			sc.doneF[x] = sc.epF
			if sc.labB[x] == sc.epB {
				if cand := sc.distF[x] + sc.distB[x]; cand < best {
					best = cand
					meet = x
				}
			}
			for _, e := range h.fwdAt(x) {
				nd := sc.distF[x] + e.km
				if sc.labF[e.node] != sc.epF || nd < sc.distF[e.node] {
					sc.labF[e.node] = sc.epF
					sc.distF[e.node] = nd
					sc.parF[e.node] = e.arc
					if nd < best { // keys ≥ best can never settle
						sc.heapF.push(chHeapItem{dist: nd, node: e.node})
					}
				}
			}
		} else {
			it := sc.heapB.pop()
			x := it.node
			if sc.doneB[x] == sc.epB {
				continue
			}
			if sc.distB[x] >= best {
				sc.heapB = sc.heapB[:0] // backward side exhausted
				continue
			}
			sc.doneB[x] = sc.epB
			if sc.labF[x] == sc.epF {
				if cand := sc.distF[x] + sc.distB[x]; cand < best {
					best = cand
					meet = x
				}
			}
			for _, e := range h.bwdAt(x) {
				nd := sc.distB[x] + e.km
				if sc.labB[e.node] != sc.epB || nd < sc.distB[e.node] {
					sc.labB[e.node] = sc.epB
					sc.distB[e.node] = nd
					sc.parB[e.node] = e.arc
					if nd < best {
						sc.heapB.push(chHeapItem{dist: nd, node: e.node})
					}
				}
			}
		}
	}
	if meet < 0 {
		return math.Inf(1)
	}
	return h.unpack(sc, meet)
}

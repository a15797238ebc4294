package traced

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/perfbench/bench"
)

// Span names. The first five are top-level spans, one per call into
// the engine's stream; the rest are recorded around calls into a layer
// made from inside those.
const (
	spSubmit      uint8 = iota // sim.Stream.SubmitTask that closed no window
	spCancel                   // sim.Stream.CancelTask
	spRetire                   // sim.Stream.RetireDriver
	spFinish                   // sim.Stream.Finish
	spWindow                   // a stream call during which a batch window closed
	spCandidates               // sim.CandidateSource.Candidates
	spChoose                   // sim.Dispatcher.Choose
	spSourceWrite              // sim.CandidateSource.Moved / Presence
	spDist                     // model.Market.Dist
	spDistMany                 // model.Market.Batch, either direction
	numSpans
)

var spanNames = [numSpans]string{
	"sim.submit", "sim.cancel", "sim.retire", "sim.finish", "sim.window",
	"sim.candidates", "online.choose", "sim.source.write", "roadnet.dist", "roadnet.distmany",
}

// span is one timed call. Spans of one order share its task index;
// parent is the index of the span open around it on the replaying
// goroutine, -1 for a top-level span.
type span struct {
	name       uint8
	order      int32
	parent     int32
	start, end int64 // nanoseconds since the recorder's epoch
}

// recorder keeps a run's spans in memory. begin/end nest spans on the
// replaying goroutine; leaf records a finished call from any goroutine
// (the sharded source scores zones concurrently) under whatever span
// the replaying goroutine has open.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  int32
	order int32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: -1, order: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// top opens a top-level span for the operation on order (-1 for none).
func (r *recorder) top(name uint8, order int) int32 {
	r.mu.Lock()
	r.order = int32(order)
	r.mu.Unlock()
	return r.begin(name)
}

func (r *recorder) begin(name uint8) int32 {
	t := r.now()
	r.mu.Lock()
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, order: r.order, parent: r.open, start: t})
	r.open = i
	r.mu.Unlock()
	return i
}

func (r *recorder) end(i int32) {
	t := r.now()
	r.mu.Lock()
	r.spans[i].end = t
	r.open = r.spans[i].parent
	r.mu.Unlock()
}

func (r *recorder) leaf(name uint8, start int64) {
	t := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, order: r.order, parent: r.open, start: start, end: t})
	r.mu.Unlock()
}

// markWindow relabels the open top-level span as a window clear.
func (r *recorder) markWindow() {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.open
	for i >= 0 && r.spans[i].parent >= 0 {
		i = r.spans[i].parent
	}
	if i >= 0 {
		r.spans[i].name = spWindow
	}
}

// profile is what the spans add up to per name.
type profile struct {
	calls    [numSpans]int
	busy     [numSpans]float64 // seconds inside the calls
	self     [numSpans]float64 // seconds inside the calls and outside their children
	minSelf  float64           // the smallest self time of any span
	topCover float64           // seconds covered by top-level spans
	selfNs   []int64
}

// analyze computes busy and self times. A span's self time is its
// duration minus the part of it that the union of its children's
// intervals covers; children of one span may overlap (concurrent zone
// scoring), so the union, not the sum, is subtracted.
func analyze(spans []span) profile {
	var p profile
	children := make([][]int32, len(spans))
	var tops []int32
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		} else {
			tops = append(tops, int32(i))
		}
	}
	p.selfNs = make([]int64, len(spans))
	for i, s := range spans {
		covered := union(spans, children[i], s.start, s.end)
		self := s.end - s.start - covered
		p.selfNs[i] = self
		p.calls[s.name]++
		p.busy[s.name] += float64(s.end-s.start) / 1e9
		p.self[s.name] += float64(self) / 1e9
		if i == 0 || float64(self)/1e9 < p.minSelf {
			p.minSelf = float64(self) / 1e9
		}
	}
	if len(tops) > 0 {
		p.topCover = float64(union(spans, tops, spans[tops[0]].start, spans[tops[len(tops)-1]].end)) / 1e9
	}
	return p
}

// union returns how many nanoseconds of [lo, hi] the given spans cover.
func union(spans []span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, c := range ids {
		a, b := max(spans[c].start, lo), min(spans[c].end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// writeSpans writes the spans as CSV under the results directory.
func writeSpans(name string, spans []span, selfNs []int64) (string, error) {
	dir := filepath.Join(bench.OutDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,name,order,parent,start_ns,end_ns,self_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d\n", i, spanNames[s.name], s.order, s.parent, s.start, s.end, selfNs[i])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

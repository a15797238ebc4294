// Package traced is the benchmark's traced run. It replays a workload's
// day once untraced through the public service, then again through an
// engine stream it builds the way dispatch.New builds one, with the
// engine's seams wrapped in timers, and reports per-layer metrics from
// the spans. On the HTTP workload it also times the HTTP handler from a
// middleware and the write-ahead log from the run's log directory. The
// traced replay must settle books bit-identical to the untraced one and
// to the batch simulator replaying the same day in one call.
package traced

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/perfbench/bench"
)

// engine builds the workload's engine as dispatch.New builds it: the
// default market, the CH router and its cache bound on a network
// workload, the linear scan or the sharded source, the match workers
// and the dispatch seed. With a tracer the seams are wrapped.
func engine(w bench.Workload, day *bench.Day, t *tracer) (*sim.Engine, *roadnet.Router, []model.MarketEvent, error) {
	mkt := model.DefaultMarket()
	var router *roadnet.Router
	if w.Network {
		gcfg := roadnet.DefaultGridConfig()
		g, err := roadnet.GenerateGrid(gcfg)
		if err != nil {
			return nil, nil, nil, err
		}
		router = roadnet.NewRouterAlgo(g, gcfg.Box, 0, roadnet.AlgoCH)
		router.SetCacheBound(roadnet.DefaultCacheEntries)
		mkt.Dist, mkt.Batch = router.Dist, router
		if t != nil {
			mkt.Dist, mkt.Batch = t.dist(router), batcher{router, t}
		}
	}
	drivers := make([]model.Driver, len(day.Market.Drivers))
	var fleet []model.MarketEvent
	for i, d := range day.Market.Drivers {
		drivers[i] = model.Driver{
			ID: d.ID, Source: geo.Point(d.Source), Dest: geo.Point(d.Dest),
			Start: d.Start, End: d.End, SpeedKmh: d.SpeedKmh,
		}
		if d.JoinAt > 0 {
			fleet = append(fleet, model.MarketEvent{At: d.JoinAt, Kind: model.EventJoin, Driver: i})
		}
	}
	eng, err := sim.New(mkt, drivers, bench.DispatchSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	var src sim.CandidateSource = &sim.ScanSource{}
	if w.Shards > 1 {
		src = sim.NewShardedSource(w.Shards)
	}
	if t != nil {
		src = source{src, t}
	}
	eng.SetCandidateSource(src)
	eng.MatchWorkers = w.MatchWorkers
	return eng, router, fleet, nil
}

// modelTasks converts the day's orders as dispatch does (a zero WTP
// defaults to the price).
func modelTasks(day *bench.Day) []model.Task {
	tasks := make([]model.Task, len(day.Tasks))
	for i, t := range day.Tasks {
		tasks[i] = model.Task{
			ID: t.ID, Publish: t.Publish, Source: geo.Point(t.Source), Dest: geo.Point(t.Dest),
			StartBy: t.StartBy, EndBy: t.EndBy, Price: t.Price, WTP: t.WTP,
		}
		if tasks[i].WTP == 0 {
			tasks[i].WTP = tasks[i].Price
		}
	}
	return tasks
}

func resultBooks(tasks int, res sim.Result) bench.Books {
	return bench.Books{
		Tasks: tasks, Served: res.Served, Rejected: res.Rejected, Cancelled: res.Cancelled,
		Revenue: res.Revenue, Profit: res.TotalProfit,
	}
}

// reference replays the day through the batch simulator in one call.
func reference(w bench.Workload, day *bench.Day) (bench.Books, error) {
	eng, _, _, err := engine(w, day, nil)
	if err != nil {
		return bench.Books{}, err
	}
	tasks := modelTasks(day)
	var res sim.Result
	if w.Window > 0 {
		res = eng.RunBatchedScenario(tasks, day.Trace.Events, w.Window, sim.BatchHungarian)
	} else {
		res = eng.RunScenario(tasks, day.Trace.Events, online.MaxMargin{})
	}
	return resultBooks(len(tasks), res), nil
}

// streamRun is the traced replay through the engine's stream.
type streamRun struct {
	t      *tracer
	router *roadnet.Router
	wallS  float64
	books  bench.Books
}

func replayStream(w bench.Workload, day *bench.Day) (streamRun, error) {
	t := &tracer{rec: newRecorder()}
	run := streamRun{t: t}
	eng, router, fleet, err := engine(w, day, t)
	if err != nil {
		return run, err
	}
	run.router = router
	var st *sim.Stream
	if w.Window > 0 {
		st, err = eng.NewBatchedStream(w.Window, sim.BatchHungarian, fleet)
		if err == nil {
			st.SetBatchCloseHandler(t.windowClosed)
		}
	} else {
		st, err = eng.NewStream(chooser{online.MaxMargin{}, t}, fleet)
	}
	if err != nil {
		return run, err
	}
	tasks := modelTasks(day)
	rec := t.rec
	start := time.Now()
	for _, op := range day.Ops {
		var err error
		switch op.Kind {
		case bench.OpSubmit:
			task := tasks[op.Index]
			if w.Strict && task.Publish < st.Now() {
				return run, fmt.Errorf("order %d out of order", op.Index)
			}
			i := rec.top(spSubmit, op.Index)
			_, err = st.SubmitTask(task)
			rec.end(i)
		case bench.OpRetire:
			at := max(op.At, st.Now())
			i := rec.top(spRetire, -1)
			err = st.RetireDriver(op.Index, at)
			rec.end(i)
		default:
			i := rec.top(spCancel, op.Index)
			_, _, err = st.CancelTask(op.Index, op.At)
			rec.end(i)
		}
		if err != nil {
			return run, err
		}
	}
	i := rec.top(spFinish, -1)
	n := st.TaskCount()
	res, err := st.Finish()
	rec.end(i)
	run.wallS = time.Since(start).Seconds()
	if err != nil {
		return run, err
	}
	run.books = resultBooks(n, res)
	return run, nil
}

// snapReplayUs times Router.NearestNode over the sampled query points
// and returns microseconds per call.
func snapReplayUs(r *roadnet.Router, pts []geo.Point) float64 {
	if r == nil || len(pts) == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < 200*time.Millisecond {
		for _, p := range pts {
			r.NearestNode(p)
		}
		calls += len(pts)
	}
	return time.Since(start).Seconds() / float64(calls) * 1e6
}

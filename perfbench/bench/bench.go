// Package bench holds what the benchmark's two runners share: the
// workload definitions, the generated day each workload replays, the
// books a replay settles, and the result line and results file the
// runners write.
//
// It depends only on the public dispatch package and the trace
// generator (with the model types the generator returns), so the
// end-to-end runner built on it compiles against the serving surface
// alone.
package bench

import (
	"fmt"
	"sort"

	"repro/dispatch"
	"repro/internal/model"
	"repro/internal/trace"
)

// Workload is one named set of inputs the benchmark replays.
type Workload struct {
	Name string

	Drivers int
	Orders  int

	Shards       int     // WithShards; 1 keeps the linear scan source
	MatchWorkers int     // WithMatchWorkers; 0 leaves the default
	Strict       bool    // WithStrictTimes
	Network      bool    // WithRoadNetwork(RoadNetwork{}): CH router and route cache
	Window       float64 // WithBatching(Window, Hungarian); 0 dispatches instantly

	// HTTP drives the day as an open loop over one loopback connection
	// into fed.MarketHandler, with the service journaled by
	// WithDurability(dir, DurFsync("interval"),
	// DurSnapshotEvery(SnapshotEvery)). OrderRate is the offered load in
	// orders per second; churn writes are spread evenly between the
	// orders.
	HTTP      bool
	OrderRate float64

	// Churn and Cancel feed trace.DefaultChurn: driver retires (half of
	// them also joining mid-day) and rider cancellations.
	Churn, Cancel float64
}

// Workloads are the benchmark's workloads, in the order BENCHMARK.json
// lists them; BENCHMARK.json records why each is there.
var Workloads = []Workload{
	{
		Name:    "instant-citywide",
		Drivers: 20000, Orders: 12000, Shards: 2, Strict: true,
	},
	{
		Name:    "batched-network",
		Drivers: 10000, Orders: 3000, Shards: 2, MatchWorkers: 2, Network: true, Window: 60,
	},
	{
		Name:    "http-durable",
		Drivers: 2000, Orders: 12000, HTTP: true, OrderRate: 1000, Churn: 0.2, Cancel: 0.15,
	},
}

// Lookup returns the workload with the given name.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// SnapshotEvery is the snapshot cadence, in log records, of the HTTP
// workload's journal. At dispatch's default (4096) a day has three
// cuts and the order latency p99 rests on the two largest, so it
// wandered by up to a quarter between runs; at 1024 a day has thirteen
// cuts of the same growing sizes, and p99 rests on several.
const SnapshotEvery = 1024

// DispatchSeed is the tie-breaking seed every service in the benchmark
// is built with (dispatch's own default), so the program receives only
// the generated orders and fleet from the workload seed.
const DispatchSeed = 1

// Options returns the dispatch options the workload's service is built
// with. dir is the write-ahead-log directory of an HTTP workload.
func (w Workload) Options(dir string) []dispatch.Option {
	opts := []dispatch.Option{dispatch.WithDispatcher(dispatch.MaxMargin), dispatch.WithSeed(DispatchSeed)}
	if w.Shards > 1 {
		opts = append(opts, dispatch.WithShards(w.Shards))
	}
	if w.MatchWorkers > 0 {
		opts = append(opts, dispatch.WithMatchWorkers(w.MatchWorkers))
	}
	if w.Strict {
		opts = append(opts, dispatch.WithStrictTimes())
	}
	if w.Network {
		opts = append(opts, dispatch.WithRoadNetwork(dispatch.RoadNetwork{}))
	}
	if w.Window > 0 {
		opts = append(opts, dispatch.WithBatching(w.Window, dispatch.Hungarian))
	}
	if w.HTTP {
		opts = append(opts, dispatch.WithDurability(dir, dispatch.DurFsync("interval"), dispatch.DurSnapshotEvery(SnapshotEvery)))
	}
	return opts
}

// OpKind is the kind of one operation of a day.
type OpKind uint8

// The operations a day sends to the service.
const (
	OpSubmit OpKind = iota // SubmitTask(Tasks[Index])
	OpRetire               // RetireDriver(Index, At)
	OpCancel               // CancelTask(Index, At)
)

// Op is one operation of a day. Index is a task index (submit, cancel)
// or a driver index (retire); public IDs equal the indices.
type Op struct {
	Kind  OpKind
	Index int
	At    float64
}

// Day is one generated day of a workload: the trace as the generator
// produced it, and the same day in the public types, with its
// operations in the canonical merge order (ascending time; retires
// before cancels before orders at one instant; original order within a
// kind). Mid-day joins ride in as each driver's JoinAt.
type Day struct {
	Trace  model.Trace
	Market dispatch.Market
	Tasks  []dispatch.Task
	Ops    []Op
}

// NewDay generates the workload's day from the trace seed.
func NewDay(w Workload, seed int64) *Day {
	cfg := trace.NewConfig(seed, w.Orders, w.Drivers, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	if w.Churn > 0 || w.Cancel > 0 {
		tr.Events = trace.WithChurn(tr, trace.DefaultChurn(seed, w.Churn, w.Cancel))
	}

	day := &Day{Trace: tr}
	joinAt := make(map[int]float64)
	type item struct {
		op   Op
		rank int
	}
	var feed []item
	for _, ev := range tr.Events {
		switch ev.Kind {
		case model.EventJoin:
			joinAt[ev.Driver] = ev.At
		case model.EventRetire:
			feed = append(feed, item{Op{OpRetire, ev.Driver, ev.At}, 1})
		case model.EventCancel:
			feed = append(feed, item{Op{OpCancel, ev.Task, ev.At}, 2})
		}
	}
	for i, t := range tr.Tasks {
		feed = append(feed, item{Op{OpSubmit, i, t.Publish}, 3})
		day.Tasks = append(day.Tasks, dispatch.Task{
			ID: i, Publish: t.Publish, Source: dispatch.Point(t.Source), Dest: dispatch.Point(t.Dest),
			StartBy: t.StartBy, EndBy: t.EndBy, Price: t.Price, WTP: t.WTP,
		})
	}
	sort.SliceStable(feed, func(a, b int) bool {
		if feed[a].op.At != feed[b].op.At {
			return feed[a].op.At < feed[b].op.At
		}
		return feed[a].rank < feed[b].rank
	})
	for _, it := range feed {
		day.Ops = append(day.Ops, it.op)
	}
	for i, d := range tr.Drivers {
		day.Market.Drivers = append(day.Market.Drivers, dispatch.Driver{
			ID: i, Source: dispatch.Point(d.Source), Dest: dispatch.Point(d.Dest),
			Start: d.Start, End: d.End, SpeedKmh: d.SpeedKmh, JoinAt: joinAt[i],
		})
	}
	return day
}

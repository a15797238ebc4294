package e2e

import (
	"fmt"
	"time"

	"repro/perfbench/bench"
)

// MinSetups is how many times a run builds the service at least, so
// setup_s is a median and not one sample.
const MinSetups = 9

// MaxLagP99Ms is the open-loop validity limit: when the 99th percentile
// of how late operations were sent exceeds it, the generator fell
// behind its schedule and the run is refused rather than reported.
const MaxLagP99Ms = 1000

// Report is everything one end-to-end run measured.
type Report struct {
	Replays   []Replay      `json:"replays"`
	SetupsS   []float64     `json:"setups_s"`
	StealFrac float64       `json:"host_steal_frac"` // over the whole run
	Submit    bench.Latency `json:"submit_latency"`
	Lag       bench.Latency `json:"send_lag"`
	RTT       bench.Latency `json:"round_trip"`
	Metrics   bench.Metrics `json:"metrics"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
}

// Run replays the workload's day through fresh services for as many
// whole days as fit in seconds (at least one), builds the service at
// least MinSetups times in all, checks the books of every replay and
// that all replays agree, and computes the end-to-end metrics.
// minSamples is the least number of submit latencies the 99th
// percentile may rest on.
//
// Two measures keep the hypervisor's steal out of the numbers. On a
// shared host it takes the CPUs away for milliseconds at a time, in
// episodes of minutes, which stretches every wall-clock duration.
// Every measured duration is counted net of steal: times 1 − the share
// of the CPUs' demand stolen during its replay (StealMeter), or during
// the whole run for the set-ups, which are too short to meter one by
// one. Where nothing is stolen this is the plain measurement. And since
// every replay does the same work order for order (the books prove it),
// each order's latency is its median over the replays, so a preemption
// that lands on one order in one replay does not move it, while a cost
// of the program, recurring in every replay, does.
func Run(w bench.Workload, seed int64, seconds float64, minSamples int) (Report, error) {
	var rep Report
	day := bench.NewDay(w, seed)
	steal := bench.NewStealMeter()
	start := time.Now()
	for {
		r, err := replayScratch(w, day)
		rep.Replays = append(rep.Replays, r)
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		if err != nil {
			return rep, err
		}
		if r.Failed > 0 {
			return rep, fmt.Errorf("%d of %d operations failed (first: %s)", r.Failed, r.Attempted, r.FirstErr)
		}
		rep.SetupsS = append(rep.SetupsS, r.SetupS)
		if time.Since(start).Seconds()+r.WallS > seconds {
			break
		}
	}
	for len(rep.SetupsS) < MinSetups {
		d, err := setupScratch(w, day)
		if err != nil {
			return rep, fmt.Errorf("setup: %w", err)
		}
		rep.SetupsS = append(rep.SetupsS, d)
	}
	rep.StealFrac = steal.Frac()

	labels := make([]string, len(rep.Replays))
	books := make([]bench.Books, len(rep.Replays))
	var lag, rtt, rates, live []float64
	for i := range rep.Replays {
		r := &rep.Replays[i]
		if err := r.Check(w); err != nil {
			return rep, fmt.Errorf("replay %d: %w", i, err)
		}
		labels[i], books[i] = fmt.Sprintf("replay %d", i), r.Books
		lag = append(lag, r.Lag...)
		rtt = append(rtt, r.RTT...)
		live = append(live, r.LiveMB)
		// The open loop's wall time is its schedule: its rate is the
		// offered one unless the market falls behind.
		wall := r.WallS
		if !w.HTTP {
			wall *= 1 - r.StealFrac
		}
		rates = append(rates, float64(r.Orders)/wall)
	}
	if err := bench.SameBooks(labels, books); err != nil {
		return rep, err
	}
	net := make([][]float64, len(rep.Replays))
	for i := range rep.Replays {
		net[i] = rep.Replays[i].netLatencies(day)
	}
	submit, err := medianOf(net)
	if err != nil {
		return rep, err
	}
	if rep.Submit, err = bench.Summarize(submit, minSamples); err != nil {
		return rep, err
	}
	if w.HTTP {
		rep.Lag, _ = bench.Summarize(lag, 0)
		rep.RTT, _ = bench.Summarize(rtt, 0)
		if rep.Lag.P99Ms > MaxLagP99Ms {
			return rep, fmt.Errorf("invalid run: the open-loop generator fell behind (send lag p99 %.1f ms > %d ms)",
				rep.Lag.P99Ms, MaxLagP99Ms)
		}
	}

	b := books[0]
	m := bench.Metrics{}
	m.Set("setup_s", bench.Median(rep.SetupsS)*(1-rep.StealFrac), "s")
	m.Set("orders_per_s", bench.Median(rates), "1/s")
	m.Set("submit_p50_ms", rep.Submit.P50Ms, "ms")
	m.Set("submit_p99_ms", rep.Submit.P99Ms, "ms")
	m.Set("served_frac", float64(b.Served)/float64(b.Tasks), "ratio")
	m.Set("mem_live_mb", bench.Median(live), "MB")
	rep.Metrics = m
	return rep, nil
}

// medianOf returns, position by position, the median of the replays'
// per-order series.
func medianOf(series [][]float64) ([]float64, error) {
	med := make([]float64, len(series[0]))
	col := make([]float64, len(series))
	for k := range med {
		for i, s := range series {
			if len(s) != len(med) {
				return nil, fmt.Errorf("replay %d timed %d orders, replay 0 timed %d", i, len(s), len(med))
			}
			col[i] = s[k]
		}
		med[k] = bench.Median(col)
	}
	return med, nil
}

// replayScratch replays the day with a fresh write-ahead-log directory
// that is removed afterwards.
func replayScratch(w bench.Workload, day *bench.Day) (Replay, error) {
	dir, cleanup, err := Scratch()
	if err != nil {
		return Replay{}, err
	}
	defer cleanup()
	steal := bench.NewStealMeter()
	r, err := ReplayDay(w, day, dir, nil)
	r.StealFrac = steal.Frac()
	return r, err
}

func setupScratch(w bench.Workload, day *bench.Day) (float64, error) {
	dir, cleanup, err := Scratch()
	if err != nil {
		return 0, err
	}
	defer cleanup()
	return setupOnce(w, day, dir)
}

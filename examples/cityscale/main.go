// Cityscale runs one online day at a fleet size the paper's evaluation
// never reaches (its §VI sweep tops out at 300 drivers): ten thousand
// drivers against a day of orders, dispatched through every candidate
// source — the exact linear scan of Algorithms 3–4, the spatial-index
// pre-filter (one zone shard), and the four-zone sharded engine — to
// show that indexing and sharding change the wall-clock, never the
// market outcome. It then
// replays the same day under driver churn and rider cancellations (the
// dynamics the paper's static fleet could not express) and finishes
// with the parallel experiment sweep that regenerates Figs 6–9.
//
// Run with:
//
//	go run ./examples/cityscale
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/experiments"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	const drivers, tasks = 10_000, 800
	cfg := trace.NewConfig(7, tasks, drivers, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	fmt.Printf("city-scale day: %d drivers, %d orders\n\n", drivers, tasks)

	run := func(label string, src sim.CandidateSource) sim.Result {
		eng, err := sim.New(cfg.Market, tr.Drivers, 1)
		if err != nil {
			log.Fatal(err)
		}
		eng.SetCandidateSource(src)
		start := time.Now()
		res := eng.Run(tr.Tasks, online.MaxMargin{})
		fmt.Printf("%-14s served %d  revenue %.2f  profit %.2f  in %v\n",
			label, res.Served, res.Revenue, res.TotalProfit, time.Since(start).Round(time.Millisecond))
		return res
	}

	scan := run("linear scan", nil)
	for _, alt := range []struct {
		label string
		src   sim.CandidateSource
	}{
		{"sharded(1)", sim.NewShardedSource(1)},
		{"sharded(4)", sim.NewShardedSource(4)},
	} {
		res := run(alt.label, alt.src)
		if scan.Served != res.Served || scan.Revenue != res.Revenue || scan.TotalProfit != res.TotalProfit {
			log.Fatalf("cityscale: %s run diverged from the scan — this is a bug", alt.label)
		}
	}
	fmt.Println("\nidentical outcomes; indexing and sharding only change who gets examined, not who gets picked")

	// The same day as a two-sided market really experiences it: part of
	// the fleet joins mid-day, part retires early, some riders cancel.
	events := trace.WithChurn(tr, trace.ChurnConfig{
		Seed: 99, JoinFraction: 0.25, RetireFraction: 0.2, CancelFraction: 0.15,
	})
	eng, err := sim.New(cfg.Market, tr.Drivers, 1)
	if err != nil {
		log.Fatal(err)
	}
	eng.SetCandidateSource(sim.NewShardedSource(4))
	churnStart := time.Now()
	churned := eng.RunScenario(tr.Tasks, events, online.MaxMargin{})
	fmt.Printf("\nchurned day (%d events): served %d (static day: %d), %d rides cancelled before pickup, in %v\n",
		len(events), churned.Served, scan.Served, churned.Cancelled, time.Since(churnStart).Round(time.Millisecond))

	// The §VI density sweep, fanned out over all cores. Each (density,
	// seed) point owns its engines, so the series match a serial run.
	fmt.Println("\nregenerating Figs 6–9 with the parallel sweep...")
	ecfg := experiments.Default()
	start := time.Now()
	m, err := experiments.RunDensitySweep(context.Background(), ecfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("swept %d density points in %v\n", len(m.Drivers), time.Since(start).Round(time.Millisecond))
	last := len(m.Drivers) - 1
	for i, name := range m.Names {
		fmt.Printf("  %-10s serve rate %.2f -> %.2f as drivers go %d -> %d\n",
			name, m.ServeRate[i][0], m.ServeRate[i][last], m.Drivers[0], m.Drivers[last])
	}
}

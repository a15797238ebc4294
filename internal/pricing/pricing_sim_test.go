package pricing_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSurgePricingThroughFullSimRun closes the gap between the surge
// pricer's unit tests and the market it actually prices: a full online
// day is simulated over surge-priced tasks under the exact linear scan,
// the grid-indexed source and the zone-sharded source, and all three
// must agree bit-for-bit — the surge multiplier changes what tasks are
// worth, never who is feasible, so candidate-source choice must be
// invisible through the whole pricing-to-profit pipeline.
func TestSurgePricingThroughFullSimRun(t *testing.T) {
	cfg := trace.NewConfig(83, 200, 50, trace.Hitchhiking)
	gen := trace.NewGenerator(cfg)
	tr := gen.Generate(nil) // linear-priced baseline

	// Surge-price the same tasks from the day's demand/supply imbalance.
	grid := geo.NewGrid(cfg.Box, 8, 8)
	surge := pricing.NewSurge(pricing.NewLinear(cfg.Market, 1), grid, 3)
	for _, d := range tr.Drivers {
		surge.ObserveSupply(d.Source, 1)
	}
	for _, tk := range tr.Tasks {
		surge.ObserveDemand(tk.Source, 1)
	}
	surgeTasks := append([]model.Task(nil), tr.Tasks...)
	pricing.ApplyPricing(surgeTasks, surge, 0.4)

	multipliers := make([]float64, len(surgeTasks))
	surged := false
	for i, tk := range surgeTasks {
		multipliers[i] = surge.Multiplier(tk.Source)
		if multipliers[i] > 1 {
			surged = true
		}
		base := tr.Tasks[i].Price // linear price of the identical task
		if math.Abs(tk.Price-multipliers[i]*base) > 1e-9 {
			t.Fatalf("task %d: surge price %.6f != multiplier %.3f × base %.6f", i, tk.Price, multipliers[i], base)
		}
	}
	if !surged {
		t.Fatal("demand-heavy market produced no surge multiplier above 1")
	}

	run := func(src sim.CandidateSource) sim.Result {
		e, err := sim.New(cfg.Market, tr.Drivers, 83)
		if err != nil {
			t.Fatal(err)
		}
		if src != nil {
			e.SetCandidateSource(src)
		}
		return e.Run(surgeTasks, online.MaxMargin{})
	}

	scan := run(nil)
	sources := map[string]sim.CandidateSource{
		"sharded-1": sim.NewShardedSource(1),
		"sharded-4": sim.NewShardedSource(4),
	}
	for name, src := range sources {
		if got := run(src); !reflect.DeepEqual(scan, got) {
			t.Errorf("%s: surge-priced simulation diverges from the linear scan", name)
		}
	}

	// The revenue really is the surged revenue: Σ multiplier·base over
	// the served set.
	var want float64
	for ti := range scan.Assignment {
		want += multipliers[ti] * tr.Tasks[ti].Price
	}
	if math.Abs(scan.Revenue-want) > 1e-6 {
		t.Fatalf("revenue %.6f != Σ surged prices of served tasks %.6f", scan.Revenue, want)
	}
	if scan.Served == 0 {
		t.Fatal("surge run served nothing; test would be vacuous")
	}
}
